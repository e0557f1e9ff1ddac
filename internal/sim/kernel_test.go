package sim

import "testing"

func TestParseKernel(t *testing.T) {
	for k, want := range map[Kernel]struct{ dense, noWarp bool }{
		"":       {},
		"nowarp": {noWarp: true},
		"dense":  {dense: true},
	} {
		c, err := ParseKernel(k)
		if err != nil {
			t.Errorf("ParseKernel(%q): %v", k, err)
		} else if c.dense != want.dense || c.noWarp != want.noWarp {
			t.Errorf("ParseKernel(%q): dense=%v noWarp=%v, want %+v", k, c.dense, c.noWarp, want)
		}
	}
	// One spelling per mode. The sharded<N> and parallel<N> forms name
	// modes that no longer exist and must be rejected, not ignored.
	for _, k := range []Kernel{"default", "Dense", "densenowarp", "nowarp ",
		"sharded", "sharded2", "sharded4", "parallel", "parallel2", "parallel16"} {
		if _, err := ParseKernel(k); err == nil {
			t.Errorf("ParseKernel(%q) accepted", k)
		}
	}
}
