package sim

import "fmt"

// Kernel names how a run is scheduled. It is the one kernel setting of
// every run description (traffic.Config, core.Config,
// experiments.TrafficJob, nocsim -kernel), and every mode simulates
// bit-identically:
//
//	""        activity scheduling with time warp (the default)
//	"nowarp"  every cycle stepped: the time-warp oracle
//	"dense"   every component evaluated every cycle: the
//	          activity-scheduling oracle
type Kernel string

// ParseKernel validates k and returns an empty Clock scheduled the way
// k names. It is the only parser of Kernel values and the only way to
// schedule a Clock other than the default. noc.New calls it to build
// a run's Clock, so a run names its Kernel there and takes the Clock
// from Network.Clock.
func ParseKernel(k Kernel) (*Clock, error) {
	switch k {
	case "", "nowarp", "dense":
		return &Clock{noWarp: k == "nowarp", dense: k == "dense"}, nil
	}
	return nil, fmt.Errorf("sim: unknown kernel %q (want \"\", nowarp or dense)", k)
}
