package noc

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestLinkSize pins a Link at 104 bytes on 64-bit platforms: three
// wires, each carrying its two values, its dirty flag and its watcher's
// port mark (which fits in the flag's padding), its clock and its
// watcher. So marking a watcher's port costs the mesh's link slab
// nothing.
func TestLinkSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Link{}); got != 104 {
		t.Errorf("a Link takes %d bytes, want 104", got)
	}
}

// flitTrain is a continuous train of max-size packets from (0,0) to
// (3,0) across a 4x1 mesh, stepped one cycle per Step.
type flitTrain struct {
	clk      *sim.Clock
	net      *Network
	src, dst *Endpoint
	payload  []uint16
	sends    int // Send calls so far: the highest packet ID
}

// newFlitTrain builds the train, queues a deep backlog behind the head
// and steps 2000 cycles so the wormhole is open end to end.
func newFlitTrain(tb testing.TB) *flitTrain {
	tb.Helper()
	// Every Step must be one cycle, so dead-cycle skipping is disabled.
	clk := kernelClock(tb, "nowarp")
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
	ft := &flitTrain{clk: clk, net: net, src: src, dst: dst, payload: make([]uint16, MaxPayload(cfg.FlitBits))}
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
		ft.sends++
	}
}

// TestFlitPathAllocs holds the flit path at exactly zero heap
// allocations, sends and deliveries included. On the flit train, a
// window of steps must allocate nothing although flits keep leaving
// the source queue, crossing three routers and filling the sink's
// reassembly storage, packets complete, and after each delivery the
// sink pops it with Recv and the source is topped up with Sends. Only
// two structures grow with the packets a network has carried: the
// metadata table, one chunk per 128 packets, and Completed's list,
// which doubles. So the window opens after the 17th delivery and must
// close before the 32nd and before packet 128. One AllocsPerRun run
// covers the whole window, so no division hides an allocation.
func TestFlitPathAllocs(t *testing.T) {
	ft := newFlitTrain(t)
	step := func() {
		n := ft.dst.Received()
		ft.clk.Step()
		if ft.dst.Received() != n {
			ft.refill(t)
		}
	}
	// Warm the rings and queues of both endpoints on the way.
	for ft.net.Delivered() < 17 {
		step()
	}
	received, sends := ft.dst.Received(), ft.sends
	// AllocsPerRun calls the function once to warm up and once more to
	// measure, so the window is 2x1200 steps: at 514 cycles a packet,
	// two deliveries and two refills each.
	const steps = 1200
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			step()
		}
	})
	if got := ft.dst.Received() - received; got < 4 {
		t.Fatalf("%d packets delivered in %d steps; the window must hold at least 4", got, 2*steps)
	}
	if ft.sends-sends < 4 {
		t.Fatalf("%d packets sent in %d steps; the window must hold at least 4", ft.sends-sends, 2*steps)
	}
	if ft.net.Delivered() >= 32 || ft.sends >= 128 {
		t.Fatalf("window ends at %d deliveries and packet %d; it must end before 32 and 128",
			ft.net.Delivered(), ft.sends)
	}
	if allocs != 0 {
		t.Errorf("flit path allocated %v objects in %d steps with sends and deliveries, want 0", allocs, steps)
	}
}
