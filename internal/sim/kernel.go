package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Kernel names how a run is scheduled. It is the one kernel setting of
// every run description (traffic.Config, core.Config,
// experiments.TrafficJob, nocsim -kernel), and every mode simulates
// bit-identically:
//
//	""             activity scheduling with time warp (the default)
//	"nowarp"       every cycle stepped: the time-warp oracle
//	"dense"        every component evaluated every cycle: the
//	               activity-scheduling oracle
//	"sharded<N>"   N ≥ 2 clock domains (a Group) in serial lockstep
//	"parallel<N>"  the same N domains, one goroutine each
//
// noc.Build turns a Kernel into clocks and a network.
type Kernel string

// KernelMode is a parsed Kernel; the zero value is the default.
type KernelMode struct {
	Dense    bool // activity scheduling off (a dense kernel never warps)
	NoWarp   bool // time warp off
	Domains  int  // clock domains of a sharded build, 0 for one Clock
	Parallel bool // one goroutine per domain
}

// ParseKernel validates k and returns its mode. It is the only parser
// of Kernel values.
func ParseKernel(k Kernel) (KernelMode, error) {
	switch k {
	case "":
		return KernelMode{}, nil
	case "nowarp":
		return KernelMode{NoWarp: true}, nil
	case "dense":
		return KernelMode{Dense: true}, nil
	}
	var m KernelMode
	s := string(k)
	switch {
	case strings.HasPrefix(s, "sharded"):
		s = strings.TrimPrefix(s, "sharded")
	case strings.HasPrefix(s, "parallel"):
		s, m.Parallel = strings.TrimPrefix(s, "parallel"), true
	default:
		return KernelMode{}, fmt.Errorf("sim: unknown kernel %q (want \"\", nowarp, dense, sharded<N> or parallel<N>)", k)
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 2 || strconv.Itoa(n) != s {
		return KernelMode{}, fmt.Errorf("sim: kernel %q needs a domain count N ≥ 2", k)
	}
	m.Domains = n
	return m, nil
}
