// Package experiments regenerates every quantitative claim of the
// MultiNoC paper. Each function runs one experiment and writes a
// markdown section with paper-vs-measured figures; All is the index, in
// report order, and `go run ./cmd/experiments` prints the whole report.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Section is one experiment runner. Run builds every mesh and system
// under kernel k, and every kernel prints the same section.
type Section struct {
	ID   string
	Name string
	Run  func(w io.Writer, k sim.Kernel) error
}

// All returns every experiment in report order.
func All() []Section {
	return []Section{
		{"E1", "Minimal latency formula (§2.1)", E1LatencyFormula},
		{"E2", "Router peak throughput 1 Gbit/s (§2.1)", E2PeakThroughput},
		{"E3", "Buffer depth vs performance (§2.1)", E3BufferDepth},
		{"E4", "XC2S200E utilization 98%/78% (§3)", E4DeviceUtilization},
		{"E5", "NoC area fraction at scale (§3)", E5NoCAreaFraction},
		{"E6", "Floorplanning (§3, Figure 7)", E6Floorplan},
		{"E7", "Host debug round trips (§4, Figure 9)", E7HostRoundTrips},
		{"E8", "Parallel edge detection (§4, Figure 10)", E8EdgeDetect},
		{"E9", "wait/notify synchronization (§2.4)", E9WaitNotify},
		{"E10", "Nine-service matrix (§2.1)", E10ServiceMatrix},
		{"E11", "CPI between 2 and 4 (§2.4)", E11CPI},
		{"E12", "Sea of processors scaling (§1, §3)", E12SeaOfProcessors},
		{"A1", "Ablation: routing algorithm", AblRouting},
		{"A2", "Ablation: flit width", AblFlitWidth},
		{"A3", "Ablation: per-hop routing time", AblRouteCycles},
		{"A4", "Ablation: serial divisor", AblBaud},
		{"A5", "Future work: run-time IP remapping", A5DynamicRemap},
		{"A6", "Simulator: activity-scheduled kernel speedup", A6KernelSchedule},
	}
}

// Write runs the section under kernel k into w, below its "## ID: Name"
// header.
func (s Section) Write(w io.Writer, k sim.Kernel) error {
	fmt.Fprintf(w, "\n## %s: %s\n\n", s.ID, s.Name)
	if err := s.Run(w, k); err != nil {
		return fmt.Errorf("%s: %w", s.ID, err)
	}
	return nil
}

// Report runs every section under kernel k into w.
func Report(w io.Writer, k sim.Kernel) error {
	fmt.Fprintln(w, "# MultiNoC — Experiment Report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Regenerated by `go run ./cmd/experiments` (deterministic; fixed seeds).")
	for _, s := range All() {
		if err := s.Write(w, k); err != nil {
			return err
		}
	}
	return nil
}
