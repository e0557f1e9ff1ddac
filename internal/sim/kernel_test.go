package sim

import "testing"

func TestParseKernel(t *testing.T) {
	for k, want := range map[Kernel]KernelMode{
		"":           {},
		"nowarp":     {NoWarp: true},
		"dense":      {Dense: true},
		"sharded2":   {Domains: 2},
		"parallel16": {Domains: 16, Parallel: true},
		"sharded4":   {Domains: 4},
		"parallel4":  {Domains: 4, Parallel: true},
	} {
		if got, err := ParseKernel(k); err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %+v, %v; want %+v", k, got, err, want)
		}
	}
	// One spelling per mode: no aliases, no one-domain groups, no signs
	// or leading zeros on the domain count.
	for _, k := range []Kernel{"default", "Dense", "sharded", "sharded1", "parallel0",
		"parallel-2", "sharded+2", "sharded02", "sharded 2", "parallel2x", "densenowarp"} {
		if m, err := ParseKernel(k); err == nil {
			t.Errorf("ParseKernel(%q) accepted as %+v", k, m)
		}
	}
}
