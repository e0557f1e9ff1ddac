package sweep

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJobSpec drives arbitrary bytes through the service's job intake:
// JSON decoding into a JobSpec, Validate, Key and, for a spec Validate
// accepts, TrafficJob.Run under a small cycle budget and a short
// wall-clock deadline. A malformed job must end as an error (a 400 at
// submission, a failed or timed-out record at run time), never a panic.
// The committed corpus (testdata/fuzz/FuzzJobSpec) covers every pattern
// name and every kernel mode.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		spec.Key()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		spec.TrafficJob.Run(ctx, 2_000)
	})
}
