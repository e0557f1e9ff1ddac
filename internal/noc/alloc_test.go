package noc

import (
	"testing"

	"repro/internal/sim"
)

// flitTrain is a continuous train of max-size packets from (0,0) to
// (3,0) across a 4x1 mesh, stepped one cycle per Step.
type flitTrain struct {
	clk      *sim.Clock
	src, dst *Endpoint
	payload  []uint16
}

// newFlitTrain builds the train, queues a deep backlog behind the head
// and steps 2000 cycles so the wormhole is open end to end.
func newFlitTrain(tb testing.TB) *flitTrain {
	tb.Helper()
	clk := sim.NewClock()
	// Every Step must be one cycle, so dead-cycle skipping is disabled.
	clk.SetTimeWarp(false)
	cfg := Defaults(4, 1)
	net, err := New(clk, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := net.NewEndpoint(Addr{0, 0})
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := net.NewEndpoint(Addr{3, 0})
	if err != nil {
		tb.Fatal(err)
	}
	ft := &flitTrain{clk: clk, src: src, dst: dst, payload: make([]uint16, MaxPayload(cfg.FlitBits))}
	ft.refill(tb)
	for i := 0; i < 2000; i++ {
		clk.Step()
	}
	return ft
}

// refill drains the sink and tops the source queue back up, so the
// wormhole never drains. Send stages into the injection queue at the
// next clock edge, so refill counts packets itself rather than polling
// QueuedFlits, which reads committed state only.
func (ft *flitTrain) refill(tb testing.TB) {
	for {
		if _, ok := ft.dst.Recv(); !ok {
			break
		}
	}
	for q := ft.src.QueuedFlits(); q < 6000; q += len(ft.payload) + 2 {
		if _, err := ft.src.Send(Addr{3, 0}, ft.payload); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFlitPathAllocs holds the flit path at exactly zero heap
// allocations. On the flit train, a window of steps in which no packet
// is delivered or enqueued must allocate nothing, although flits keep
// leaving the source queue, crossing three routers and filling the
// sink's reassembly buffer. One AllocsPerRun run covers the whole
// window, so no division hides an allocation.
func TestFlitPathAllocs(t *testing.T) {
	ft := newFlitTrain(t)
	// Open the window on the step after a delivery: the next one is a
	// whole packet (257 flits at 2 cycles each) away.
	for n := ft.dst.Received(); ft.dst.Received() == n; {
		ft.clk.Step()
	}
	received, queued := ft.dst.Received(), ft.src.QueuedFlits()
	// AllocsPerRun calls the function once to warm up and once more to
	// measure, so the window is 2x200 steps.
	const steps = 200
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			ft.clk.Step()
		}
	})
	if got := ft.dst.Received(); got != received {
		t.Fatalf("%d packets delivered inside the window; it must hold none", got-received)
	}
	if moved := queued - ft.src.QueuedFlits(); moved < steps/2 {
		t.Fatalf("only %d flits left the source in %d steps; the train is not streaming", moved, 2*steps)
	}
	if allocs != 0 {
		t.Errorf("flit path allocated %v objects in %d delivery-free steps, want 0", allocs, steps)
	}
}
