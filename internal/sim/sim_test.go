package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"testing/quick"
)

// counter increments a register every cycle and drives it onto a wire.
type counter struct {
	n   uint64
	out *Wire[uint64]
}

func (c *counter) Eval()   { c.out.Set(c.n + 1) }
func (c *counter) Commit() { c.n++ }

// follower copies its input wire into a register.
type follower struct {
	in   *Wire[uint64]
	seen []uint64
	next uint64
}

func (f *follower) Eval()   { f.next = f.in.Get() }
func (f *follower) Commit() { f.seen = append(f.seen, f.next) }

// kernelClock returns an empty clock scheduled by kernel k.
func kernelClock(t *testing.T, k Kernel) *Clock {
	t.Helper()
	clk, err := ParseKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	return clk
}

func TestWireRegistersOneCycle(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	c := &counter{out: w}
	f := &follower{in: w}
	clk.Register(c)
	clk.Register(f)

	clk.Run(4)
	// The follower must see each counter value exactly one cycle late:
	// cycle 1 it reads the initial 0, cycle 2 it reads 1 (staged during
	// cycle 1), etc.
	want := []uint64{0, 1, 2, 3}
	if len(f.seen) != len(want) {
		t.Fatalf("follower saw %d values, want %d", len(f.seen), len(want))
	}
	for i, v := range want {
		if f.seen[i] != v {
			t.Errorf("cycle %d: follower saw %d, want %d", i+1, f.seen[i], v)
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	// Two clock domains with the same components registered in opposite
	// order must produce identical traces.
	run := func(swap bool) []uint64 {
		clk := new(Clock)
		w := NewWire(clk, uint64(0))
		c := &counter{out: w}
		f := &follower{in: w}
		if swap {
			clk.Register(f)
			clk.Register(c)
		} else {
			clk.Register(c)
			clk.Register(f)
		}
		clk.Run(16)
		return f.seen
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: order-dependent result %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunUntil(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	c := &counter{out: w}
	clk.Register(c)

	if err := clk.RunUntil(func() bool { return c.n == 10 }, 100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if clk.Cycle() != 10 {
		t.Errorf("cycle = %d, want 10", clk.Cycle())
	}
	err := clk.RunUntil(func() bool { return false }, 5)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("RunUntil error = %v, want ErrTimeout", err)
	}
	if clk.Cycle() != 15 {
		t.Errorf("cycle after timeout = %d, want 15", clk.Cycle())
	}
}

func TestProbeSeesPostEdgeState(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	c := &counter{out: w}
	clk.Register(c)
	var got []uint64
	clk.Probe(func(cycle uint64) { got = append(got, w.Get()) })
	clk.Run(3)
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d saw %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWireHoldsValue(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, 42)
	clk.Run(5)
	if w.Get() != 42 {
		t.Errorf("undriven wire = %d, want 42", w.Get())
	}
	w.Set(7)
	if w.Get() != 42 {
		t.Errorf("wire visible before edge: %d, want 42", w.Get())
	}
	clk.Step()
	if w.Get() != 7 {
		t.Errorf("wire after edge = %d, want 7", w.Get())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(124)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(123).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%63) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// pulser implements Idler: it counts down `work` evals, then idles. It
// records the cycle numbers at which it was evaluated.
type pulser struct {
	clk   *Clock
	work  int
	evals []uint64
}

func (p *pulser) Eval() {
	p.evals = append(p.evals, p.clk.Cycle()+1)
	if p.work > 0 {
		p.work--
	}
}
func (p *pulser) Commit()    {}
func (p *pulser) Idle() bool { return p.work == 0 }

func TestIdlerSleepsAndQuiesces(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 3}
	clk.Register(p)
	if clk.ActiveCount() != 1 {
		t.Fatalf("fresh component inactive")
	}
	clk.Run(10)
	if got := len(p.evals); got != 3 {
		t.Errorf("pulser evaluated %d times, want 3", got)
	}
	if clk.ActiveCount() != 0 {
		t.Errorf("idle component still active")
	}
	if !clk.Quiescent() {
		t.Error("clock not quiescent with all components asleep")
	}
	if err := clk.RunUntilQuiescent(5); err != nil {
		t.Errorf("RunUntilQuiescent on quiescent clock: %v", err)
	}
	if clk.Cycle() != 10 {
		t.Errorf("RunUntilQuiescent stepped a quiescent clock to %d", clk.Cycle())
	}
}

func TestWakeReactivates(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Run(5) // evaluates at cycle 1, then sleeps
	p.work = 2
	h.Wake()
	clk.Run(5)
	want := []uint64{1, 6, 7}
	if len(p.evals) != len(want) {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
	for i := range want {
		if p.evals[i] != want[i] {
			t.Fatalf("eval cycles %v, want %v", p.evals, want)
		}
	}
}

// logger appends "E<id>" to a shared log on Eval and "C<id>" on Commit.
// It sleeps between steps, and wakes the components in wakes during its
// next Eval.
type logger struct {
	id    int
	clk   *Clock
	log   *[]string
	wakes []Handle
}

func (l *logger) Eval() {
	*l.log = append(*l.log, fmt.Sprintf("E%d", l.id))
	for _, h := range l.wakes {
		h.Wake()
	}
	l.wakes = nil
}
func (l *logger) Commit()    { *l.log = append(*l.log, fmt.Sprintf("C%d", l.id)) }
func (l *logger) Idle() bool { return true }

// TestActiveSetRegistrationOrder: the active set is visited in
// registration order, whatever order its members were woken in, across
// bitmap words. A component woken during Eval ahead of the scan is
// evaluated this cycle; one woken behind it gets only its Commit.
func TestActiveSetRegistrationOrder(t *testing.T) {
	clk := new(Clock)
	var log []string
	ls := make([]*logger, 130)
	hs := make([]Handle, len(ls))
	for i := range ls {
		ls[i] = &logger{id: i, clk: clk, log: &log}
		hs[i] = clk.Register(ls[i])
	}
	clk.Step() // everything evaluates once, then sleeps
	if clk.ActiveCount() != 0 {
		t.Fatalf("%d components awake after the first step", clk.ActiveCount())
	}
	ls[70].wakes = []Handle{hs[5], hs[90], hs[71]}
	for _, i := range []int{100, 3, 70} {
		hs[i].Wake()
	}
	log = log[:0]
	clk.Step()
	want := []string{"E3", "E70", "E71", "E90", "E100", "C3", "C5", "C70", "C71", "C90", "C100"}
	if !slices.Equal(log, want) {
		t.Errorf("step log %v, want %v", log, want)
	}
	if clk.ActiveCount() != 0 {
		t.Errorf("%d components awake, want 0", clk.ActiveCount())
	}
}

func TestWakeAtTimer(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Run(3) // evaluates at cycle 1, sleeps from cycle 1 on
	p.work = 1
	h.WakeAt(10)
	if clk.Quiescent() {
		t.Error("armed timer should not be quiescent")
	}
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 10}
	if len(p.evals) != 2 || p.evals[0] != want[0] || p.evals[1] != want[1] {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
}

func TestRunUntilQuiescentTimeout(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	clk.Register(&counter{out: w}) // counter never idles
	err := clk.RunUntilQuiescent(7)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if clk.Cycle() != 7 {
		t.Errorf("cycle = %d, want 7", clk.Cycle())
	}
}

// watcherComp sleeps immediately and logs the wire values it observes
// when woken.
type watcherComp struct {
	in   *Wire[uint64]
	clk  *Clock
	seen map[uint64]uint64 // cycle -> value observed
}

func (w *watcherComp) Eval()      { w.seen[w.clk.Cycle()+1] = w.in.Get() }
func (w *watcherComp) Commit()    {}
func (w *watcherComp) Idle() bool { return true }

// stepDriver drives a wire to a new value at chosen cycles.
type stepDriver struct {
	out    *Wire[uint64]
	clk    *Clock
	values map[uint64]uint64 // set out to v during the eval of this cycle
}

func (d *stepDriver) Eval() {
	if v, ok := d.values[d.clk.Cycle()+1]; ok {
		d.out.Set(v)
	}
}
func (d *stepDriver) Commit() {}

// TestWatchWakeMatchesDense: a sleeping watcher must observe a changed
// wire on exactly the cycle a dense simulation would have, and must not
// be woken by latches that do not change the value.
func TestWatchWakeMatchesDense(t *testing.T) {
	run := func(k Kernel) map[uint64]uint64 {
		clk := kernelClock(t, k)
		w := NewWire(clk, uint64(0))
		d := &stepDriver{out: w, clk: clk, values: map[uint64]uint64{3: 7, 5: 7, 9: 8}}
		wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
		clk.Register(d)
		Watch(w, clk.Register(wc), 0)
		clk.Run(15)
		return wc.seen
	}
	dense := run("dense")
	sparse := run("")
	// Dense observes every cycle; keep only the cycles sparse ran and
	// require the observed values to agree there.
	for cyc, v := range sparse {
		if dense[cyc] != v {
			t.Errorf("cycle %d: sparse saw %d, dense saw %d", cyc, v, dense[cyc])
		}
	}
	// The change staged at cycle 3 latches at the end of 3, so the
	// watcher must run (and see 7) at cycle 4; same for 9 -> 10. The
	// re-stage of the same value at cycle 5 must not wake it.
	if v, ok := sparse[4]; !ok || v != 7 {
		t.Errorf("watcher at cycle 4: %v %v, want 7", v, ok)
	}
	if v, ok := sparse[10]; !ok || v != 8 {
		t.Errorf("watcher at cycle 10: %v %v, want 8", v, ok)
	}
	if _, ok := sparse[6]; ok {
		t.Error("watcher woken by a latch that did not change the value")
	}
}

// TestTimeWarpJumpsToTimer: with the domain dead and a timer armed,
// one Step must land exactly on the timer's cycle, evaluating the
// component on the same cycle a per-cycle run would.
func TestTimeWarpJumpsToTimer(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Step() // evaluates at cycle 1, then sleeps
	p.work = 1
	h.WakeAt(1000)
	clk.Step() // dead domain: must warp straight to the timer
	if clk.Cycle() != 1000 {
		t.Fatalf("cycle after warped step = %d, want 1000", clk.Cycle())
	}
	want := []uint64{1, 1000}
	if len(p.evals) != 2 || p.evals[0] != want[0] || p.evals[1] != want[1] {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
}

// TestRunUntilFirstStepNeverWarps: a predicate that already holds must
// return one cycle after the call under every kernel, called exactly
// once, instead of the default kernel warping to the next timer first.
// Later steps still warp.
func TestRunUntilFirstStepNeverWarps(t *testing.T) {
	for _, k := range []Kernel{"", "nowarp", "dense"} {
		clk := kernelClock(t, k)
		p := &pulser{clk: clk, work: 1}
		h := clk.Register(p)
		clk.Step() // evaluates at cycle 1, then sleeps
		h.WakeAt(1000)
		calls := 0
		if err := clk.RunUntil(func() bool { calls++; return true }, 5000); err != nil {
			t.Fatal(err)
		}
		if clk.Cycle() != 2 || calls != 1 {
			t.Errorf("kernel %q: held predicate returned at cycle %d after %d calls, want cycle 2 after 1", k, clk.Cycle(), calls)
		}
		steps := 0
		clk.Probe(func(uint64) { steps++ })
		if err := clk.RunUntil(func() bool { return clk.Cycle() >= 1000 }, 5000); err != nil {
			t.Fatal(err)
		}
		if clk.Cycle() != 1000 {
			t.Errorf("kernel %q: predicate returned at cycle %d, want 1000", k, clk.Cycle())
		}
		if k == "" && steps != 2 {
			t.Errorf("executed %d steps to the timer, want 2 (one plain, one warped)", steps)
		}
	}
}

// TestTimeWarpOffStepsEveryCycle: the nowarp kernel keeps the
// one-cycle-per-Step reference behaviour on a dead domain.
func TestTimeWarpOffStepsEveryCycle(t *testing.T) {
	clk := kernelClock(t, "nowarp")
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Step()
	p.work = 1
	h.WakeAt(10)
	for i := 0; i < 5; i++ {
		clk.Step()
	}
	if clk.Cycle() != 6 {
		t.Fatalf("cycle = %d, want 6 (no warping)", clk.Cycle())
	}
	clk.Run(10)
	if clk.Cycle() != 16 {
		t.Fatalf("cycle = %d, want 16", clk.Cycle())
	}
	if len(p.evals) != 2 || p.evals[1] != 10 {
		t.Fatalf("eval cycles %v, want [1 10]", p.evals)
	}
}

// TestProbeRangeTilesSkippedSpans: per-cycle probes and range probes
// must together cover every simulated cycle exactly once, so a
// per-cycle accumulator integrating ranges stays bit-identical to
// dense evaluation.
func TestProbeRangeTilesSkippedSpans(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 2}
	h := clk.Register(p)
	covered := make(map[uint64]int)
	clk.Probe(func(cycle uint64) { covered[cycle]++ })
	clk.ProbeRange(func(from, to uint64) {
		if from > to {
			t.Fatalf("empty range [%d, %d]", from, to)
		}
		for c := from; c <= to; c++ {
			covered[c]++
		}
	})
	h.WakeAt(40) // fires mid-run
	clk.Run(100) // sleeps after cycle 2, warps 3..39 and 41..100
	if clk.Cycle() != 100 {
		t.Fatalf("cycle = %d, want 100", clk.Cycle())
	}
	for c := uint64(1); c <= 100; c++ {
		if covered[c] != 1 {
			t.Fatalf("cycle %d covered %d times, want exactly once", c, covered[c])
		}
	}
}

// TestRunWarpNeverOvershoots: Run's cycle budget must cap a warp even
// when the earliest timer lies beyond it.
func TestRunWarpNeverOvershoots(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Step()
	p.work = 1
	h.WakeAt(1000)
	clk.Run(50)
	if clk.Cycle() != 51 {
		t.Fatalf("cycle = %d, want 51 (budget-capped)", clk.Cycle())
	}
	if len(p.evals) != 1 {
		t.Fatalf("timer fired early: evals %v", p.evals)
	}
	clk.Run(2000)
	if clk.Cycle() != 2051 {
		t.Fatalf("cycle = %d, want 2051", clk.Cycle())
	}
	if len(p.evals) != 2 || p.evals[1] != 1000 {
		t.Fatalf("eval cycles %v, want second at 1000", p.evals)
	}
}

// TestWakeAtCoalescesDuplicates: re-arming the same (component, cycle)
// deadline must not grow the timer heap — the leak a periodic
// component re-arming every Eval would otherwise cause.
func TestWakeAtCoalescesDuplicates(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Step()
	for i := 0; i < 100; i++ {
		h.WakeAt(50)
	}
	if got := clk.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d after 100 duplicate arms, want 1", got)
	}
	p.work = 1
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	if len(p.evals) != 2 || p.evals[1] != 50 {
		t.Fatalf("eval cycles %v, want second at 50", p.evals)
	}
	// After the timer fired, the same deadline cycle must be armable
	// again (for a new simulation phase at a later cycle).
	h.WakeAt(200)
	h.WakeAt(200)
	if got := clk.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d after re-arm, want 1", got)
	}
}

// TestWakeAtDistinctCyclesAllFire: distinct deadlines for one component
// are not coalesced away.
func TestWakeAtDistinctCyclesAllFire(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk, work: 1}
	h := clk.Register(p)
	clk.Step()
	h.WakeAt(10)
	h.WakeAt(30)
	h.WakeAt(20)
	if got := clk.PendingTimers(); got != 3 {
		t.Fatalf("PendingTimers = %d, want 3", got)
	}
	if err := clk.RunUntilQuiescent(100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 10, 20, 30}
	if len(p.evals) != len(want) {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}
	for i := range want {
		if p.evals[i] != want[i] {
			t.Fatalf("eval cycles %v, want %v", p.evals, want)
		}
	}
}

// TestWatchSecondWatcherPanics: a wire has one reader, so a second
// Watch on it is a wiring error.
func TestWatchSecondWatcherPanics(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	Watch(w, clk.Register(&watcherComp{in: w, clk: clk}), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Watch on one wire did not panic")
		}
	}()
	Watch(w, clk.Register(&watcherComp{in: w, clk: clk}), 0)
}

// TestWatchInPlaceAllocatesNothing: a wire readied in place and given
// one watcher costs no heap allocation, so a mesh's watched link wires
// cost only the slab they live in (a default clock keeps no list of
// them; only dense latches every wire).
func TestWatchInPlaceAllocatesNothing(t *testing.T) {
	clk := new(Clock)
	h := clk.Register(&watcherComp{clk: clk, seen: make(map[uint64]uint64)})
	wires := make([]Wire[uint64], 64)
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		for k := next; k < next+len(wires)/2; k++ {
			wires[k].Init(clk, 0)
			Watch(&wires[k], h, 0)
		}
		next += len(wires) / 2
	})
	if allocs != 0 {
		t.Fatalf("Init plus one Watch on %d wires allocated %v objects, want 0", len(wires)/2, allocs)
	}
}

// TestWatchAfterStagedSet: a watcher registered between a staged Set
// and the edge that latches it must still be woken by that edge.
func TestWatchAfterStagedSet(t *testing.T) {
	clk := new(Clock)
	w := NewWire(clk, uint64(0))
	wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
	h := clk.Register(wc)
	clk.Run(3) // watcher asleep from cycle 1 on
	w.Set(7)   // staged outside Eval, awaiting the next edge
	Watch(w, h, 0)
	clk.Run(3)
	if v, ok := wc.seen[5]; !ok || v != 7 {
		t.Fatalf("watcher after late registration: seen %v, want 7 at cycle 5", wc.seen)
	}
}

// markComp records the change mask it takes in each Eval, by cycle,
// and sleeps.
type markComp struct {
	clk  *Clock
	self Handle
	got  map[uint64]uint16
}

func (m *markComp) Eval() {
	if c := m.self.TakeChanged(); c != 0 {
		m.got[m.clk.Cycle()+1] = c
	}
}
func (m *markComp) Commit()    {}
func (m *markComp) Idle() bool { return true }

// TestWatchMarks: every edge that changes a watched wire ORs the mark
// its Watch named into the watcher's change mask, under every kernel; a
// Set that leaves the value unchanged marks nothing. Changed reads the
// mask and TakeChanged clears it, so a watcher taking it in Eval sees
// the edge's changes on exactly the cycle it first reads them. b's mark
// lies above the mask's low byte.
func TestWatchMarks(t *testing.T) {
	for _, k := range []Kernel{"", "nowarp", "dense"} {
		clk := kernelClock(t, k)
		a, b := NewWire(clk, uint64(0)), NewWire(clk, uint64(0))
		clk.Register(&stepDriver{out: a, clk: clk, values: map[uint64]uint64{3: 5, 5: 5, 7: 0}})
		clk.Register(&stepDriver{out: b, clk: clk, values: map[uint64]uint64{3: 1, 9: 2}})
		m := &markComp{clk: clk, got: make(map[uint64]uint16)}
		m.self = clk.Register(m)
		Watch(a, m.self, 1)
		Watch(b, m.self, 1<<9)
		clk.Run(9)
		if got, again := m.self.Changed(), m.self.Changed(); got != 1<<9 || again != 1<<9 {
			t.Errorf("kernel %q: Changed after the edge of cycle 9 = %b then %b, want 1000000000 twice", k, got, again)
		}
		clk.Run(3)
		if want := map[uint64]uint16{4: 1<<9 | 1, 8: 1, 10: 1 << 9}; !maps.Equal(m.got, want) {
			t.Errorf("kernel %q: masks taken %v, want %v", k, m.got, want)
		}
		if c := m.self.Changed(); c != 0 {
			t.Errorf("kernel %q: Changed after TakeChanged = %b, want 0", k, c)
		}
	}
	var zero Handle
	if zero.Changed() != 0 || zero.TakeChanged() != 0 {
		t.Error("the zero Handle reports a change")
	}
}

// TestWatchDenseMode: with activity scheduling off the watcher
// machinery must be inert but harmless — the watcher (evaluated every
// cycle anyway) observes exactly what the sparse run's wakes showed it.
func TestWatchDenseMode(t *testing.T) {
	run := func(k Kernel) map[uint64]uint64 {
		clk := kernelClock(t, k)
		w := NewWire(clk, uint64(0))
		d := &stepDriver{out: w, clk: clk, values: map[uint64]uint64{4: 3, 8: 11}}
		wc := &watcherComp{in: w, clk: clk, seen: make(map[uint64]uint64)}
		clk.Register(d)
		Watch(w, clk.Register(wc), 0)
		clk.Run(12)
		return wc.seen
	}
	dense, sparse := run("dense"), run("")
	for cyc, v := range sparse {
		if dense[cyc] != v {
			t.Errorf("cycle %d: sparse saw %d, dense saw %d", cyc, v, dense[cyc])
		}
	}
	if v := dense[5]; v != 3 {
		t.Errorf("dense watcher at cycle 5 = %d, want 3", v)
	}
	if v := dense[9]; v != 11 {
		t.Errorf("dense watcher at cycle 9 = %d, want 11", v)
	}
}

// TestDenseKernelEquivalence runs the counter/follower pair under both
// kernels and requires identical traces.
func TestDenseKernelEquivalence(t *testing.T) {
	run := func(k Kernel) []uint64 {
		clk := kernelClock(t, k)
		w := NewWire(clk, uint64(0))
		f := &follower{in: w}
		clk.Register(&counter{out: w})
		clk.Register(f)
		clk.Run(20)
		return f.seen
	}
	a, b := run(""), run("dense")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: sparse %d, dense %d", i, a[i], b[i])
		}
	}
}

// TestHandleWakes: the Handle Register returns wakes its component for
// the next cycle (Wake) or for a given one (WakeAt); waking or watching
// through the zero Handle wakes nothing.
func TestHandleWakes(t *testing.T) {
	clk := new(Clock)
	p := &pulser{clk: clk}
	h := clk.Register(p)
	clk.Step()
	if clk.ActiveCount() != 0 {
		t.Fatal("pulser did not retire")
	}
	h.Wake()
	clk.Step()
	h.WakeAt(clk.Cycle() + 50)
	if clk.PendingTimers() != 1 {
		t.Fatal("WakeAt did not arm a timer")
	}
	clk.Run(60)
	if clk.PendingTimers() != 0 {
		t.Fatal("WakeAt timer never fired")
	}
	if want := []uint64{1, 2, 52}; !slices.Equal(p.evals, want) {
		t.Fatalf("eval cycles %v, want %v", p.evals, want)
	}

	var zero Handle
	zero.Wake()
	zero.WakeAt(1 << 20)
	w := NewWire(clk, uint64(0))
	Watch(w, zero, 0)
	w.Set(1)
	clk.Run(3)
	if len(p.evals) != 3 || clk.PendingTimers() != 0 {
		t.Fatalf("zero handle woke the pulser: eval cycles %v, %d timers", p.evals, clk.PendingTimers())
	}
}
