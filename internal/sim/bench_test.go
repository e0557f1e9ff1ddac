package sim

import "testing"

// benchIdler sleeps forever after its first Eval; benchSpinner never
// sleeps. Together they isolate the kernel's fixed per-Step cost from
// the per-component cost.
type benchIdler struct{ evals uint64 }

func (c *benchIdler) Eval()      { c.evals++ }
func (c *benchIdler) Commit()    {}
func (c *benchIdler) Idle() bool { return true }

type benchSpinner struct{ evals uint64 }

func (c *benchSpinner) Eval()   { c.evals++ }
func (c *benchSpinner) Commit() {}

// BenchmarkStepOverhead isolates the kernel's Step cost: "idle" is a
// domain of 256 sleeping components (the fixed dispatch overhead the
// time-warp kernel eliminates for dead spans), "busy" the same domain
// with every component evaluating every cycle, and "warp" the idle
// domain driven through Run with a far-future timer armed, measuring
// the cost of covering simulated time by jumping instead of stepping.
func BenchmarkStepOverhead(b *testing.B) {
	b.ReportAllocs()
	const n = 256
	b.Run("idle", func(b *testing.B) {
		b.ReportAllocs()
		clk := NewClock()
		for i := 0; i < n; i++ {
			clk.Register(&benchIdler{})
		}
		clk.Step() // everyone retires
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clk.Step()
		}
	})
	b.Run("busy", func(b *testing.B) {
		b.ReportAllocs()
		clk := NewClock()
		for i := 0; i < n; i++ {
			clk.Register(&benchSpinner{})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clk.Step()
		}
	})
	b.Run("warp", func(b *testing.B) {
		b.ReportAllocs()
		clk := NewClock()
		h := clk.Register(&benchIdler{})
		for i := 0; i < n-1; i++ {
			clk.Register(&benchIdler{})
		}
		clk.Step()
		const span = 1_000_000
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.WakeAt(clk.Cycle() + span)
			clk.Run(span) // one warped jump plus one executed step
		}
		b.ReportMetric(span*float64(b.N)/b.Elapsed().Seconds(), "simcycles/sec")
	})
}
