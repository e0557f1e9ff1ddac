// Package sim provides the two-phase synchronous simulation kernel that
// every hardware model in this repository runs on.
//
// # Two-phase semantics
//
// The kernel mirrors register-transfer-level semantics: a component reads
// the *current* value of its input wires during Eval and computes its next
// state; Commit then latches all next states at once, like a global clock
// edge hitting every flip-flop. Because no Eval can observe another
// component's same-cycle output, simulation results are independent of
// component registration order, making every run bit-for-bit
// deterministic.
//
// # Activity scheduling
//
// Dense RTL simulation evaluates every component every cycle, which makes
// large, mostly-idle systems (a 16x16 mesh with one packet in flight)
// pay for hundreds of no-op Evals per cycle. The kernel therefore keeps
// an *active set*: a component that additionally implements Idler is put
// to sleep at the end of any cycle in which Idle() reports true, and is
// skipped entirely — no Eval, no Commit — until something wakes it.
//
// Register returns a component's Handle, and that Handle is the only
// way to wake it. A sleeping component may be woken three ways:
//
//   - sim.Watch — a clock edge that changes a watched wire's value
//     wakes its watcher, the wire's one reader, for the next cycle.
//     This is how a router stalled mid-wormhole is woken by the one
//     signal that ends its stall, the tx of an incoming link or the
//     ack of an outgoing one: the neighbour stages the signal in cycle
//     k, the edge latches it, and the watcher evaluates in cycle k+1 —
//     exactly the cycle in which a dense simulation would first
//     observe the new value. Wake-on-change therefore preserves
//     bit-identical results. The change also marks the watcher's
//     16-bit change mask (Handle.Changed) with the bits its Watch
//     named, so a router visits only the ports it knows are live and
//     not waiting, the inputs whose tx changed and the outputs whose
//     ack changed.
//   - Handle.Wake — an explicit wake, used when state is handed to a
//     sleeping component outside the wire protocol (e.g. a packet
//     staged on an endpoint's injection queue, or a received packet
//     completing for the endpoint's owning IP). A Wake issued during
//     the Eval phase joins the component to the *current* cycle: its
//     Commit runs this edge, so state staged on it by the caller
//     latches on the same edge it would have latched in a dense run.
//     The Eval scan runs in registration order: a component woken
//     ahead of it (registered after the one evaluating) is evaluated
//     this cycle, and one woken behind it gets only its Commit. That
//     is safe by construction — a component asleep at Eval time had
//     quiescent combinational outputs, so its skipped Eval was a
//     no-op. A Wake issued at any other time takes effect at the next
//     Step.
//   - Handle.WakeAt — a timer: the component is woken so that it is
//     active during the step that ends at the given cycle count.
//
// A component may therefore report Idle() exactly when (a) its Eval
// would stage no state change and drive no wire to a new value, and (b)
// every event that could change that fact also wakes it (via a watched
// wire, a Handle.Wake from whoever hands it work, or a timer).
// Components that never satisfy this — or that predate the protocol —
// simply do not implement Idler and run every cycle, which is always
// correct, only slower — and, since they never retire from the active
// set, a clock holding one never reports Quiescent (quiescence
// callers then run to their cycle budgets).
//
// Wires participate too: a wire only latches on edges following a Set
// (its driver is asleep otherwise and the value holds by definition), so
// idle links cost nothing.
//
// # Time warping
//
// Activity scheduling makes an idle cycle cheap; time warping makes it
// free. When a cycle about to execute is provably dead — the active set
// is empty, no wakes are pending and no wire has a staged value — the
// only thing that can ever re-start activity is the earliest timer
// armed by Handle.WakeAt. Step, Run, RunUntil and RunUntilQuiescent
// therefore jump the cycle counter directly to that timer's cycle
// (bounded by the caller's cycle budget) instead of executing the dead
// span one no-op step at a time. A serial transfer that sleeps between
// bursts and received bytes, or a low-rate traffic sweep whose injectors
// sleep between packets, then costs executed steps proportional to its
// *events*, not to simulated time.
//
// Skipping is invisible to the simulation itself: during a dead span no
// component evaluates, no wire latches and no state can change, so the
// skipped steps would have done exactly nothing. The only observers
// that notice are per-cycle probes. The contract is:
//
//   - Probe functions run once per *executed* cycle. State is frozen
//     across a skipped span, so a probe that merely samples state loses
//     nothing (a VCD tracer emits no change records either way).
//   - Probes that *accumulate* per cycle (occupancy integrals, busy
//     counters) must also register a ProbeRange hook; it is called with
//     the inclusive cycle interval of every skipped span, before the
//     next executed step, so the accumulator can integrate the frozen
//     state over the span and stay bit-identical to dense evaluation.
//
// The "nowarp" Kernel disables the jump (every cycle is stepped) for
// differential testing; the "dense" Kernel never warps.
//
// Models extend the same idea below whole-clock granularity by
// *run-batching* their own periodic protocols: instead of stepping a
// multi-cycle exchange wire by wire, a model that can prove the next n
// cycles of the protocol are predetermined schedules WakeAt timers for
// the cycles on which state actually changes and sleeps in between. The
// UARTs batch a serial run this way: a transmitter stages up to six
// frames as one wire value and arms one timer at the burst's end, and a
// receiver replays the per-cycle receiver from that value and arms one
// timer per byte, where the byte completes. The Processor IP
// (internal/procip) batches its core two ways. At a fixed point, a
// poll loop over local memory or a stalled access that repeats, it
// sleeps without any timer until a packet or a backdoor access wakes
// it, then adds the whole periods it slept through to its counters and
// steps the rest. Through plain local execution it dry-runs a copy of
// the core to the first cycle with an effect outside the core and its
// local memory, sleeps on a timer for that cycle, and there commits the
// dry run as the cycles in between; read mid-way, it steps them
// instead. The contract is the one Idle() already imposes: every
// latch, counter update, and wire change the batched span produces
// must land on exactly the cycle the stepped model would produce it,
// or, for state only the model's own accessors expose, be
// brought up to date before any of them returns it, so batching is
// invisible to differential comparison. Such state changes lazily under
// warp, so a RunUntil predicate sees it exact only through the model's
// accessors, and only on executed cycles. A timer stays armed when the
// model's plan changes (the kernel cannot cancel one) and holds off
// Quiescent until it fires, under every kernel alike.
//
// Determinism is unaffected by any of this: the active set only ever
// skips Evals that stage nothing and Commits that latch nothing, wakes
// are applied at deterministic points of the cycle, warped spans are
// provably free of state changes, and the active set is visited in
// registration order, the order dense evaluates everything in, so
// anything a model numbers in evaluation order, such as packet IDs,
// comes out the same under every kernel. The same seed therefore
// yields bit-identical results under all three Kernel modes: the
// default (activity scheduling with time warp), "nowarp" (the
// time-warp oracle) and "dense" (the activity-scheduling oracle). A
// Kernel value is the only way to choose one: ParseKernel turns it
// into a Clock scheduled that way. A run's Clock is its network's:
// noc.New parses the run's Kernel and registers the mesh on the Clock
// it returns, and every IP core and probe of the run gets it from
// Network.Clock. A model that needs no mesh runs on the zero Clock,
// which is default-scheduled.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Component is a clocked hardware block. Eval must only read wire values
// published in previous cycles (Wire.Get) and stage new ones (Wire.Set);
// Commit latches internal registers. Components must not communicate
// outside of Wires.
type Component interface {
	// Eval performs the combinational phase for the current cycle.
	Eval()
	// Commit performs the clock-edge phase, latching state computed by
	// Eval.
	Commit()
}

// Idler is optionally implemented by components that can sleep. Idle is
// consulted after every clock edge; a true result removes the component
// from the active set until a watched wire changes, its Handle's Wake
// is called, or a timer armed by its Handle's WakeAt fires. See the
// package comment for the exact contract.
type Idler interface {
	Component
	// Idle reports whether the component's next Eval would be a
	// no-op: it would stage no state change and drive no wire to a new
	// value.
	Idle() bool
}

// latcher is the internal interface wires implement so the clock can
// latch them after all components commit.
type latcher interface{ latch() }

// wakeTimer is one pending WakeAt request.
type wakeTimer struct {
	cycle uint64
	idx   int
}

// Clock drives a set of components and wires with a shared synchronous
// clock. The zero value is ready to use.
type Clock struct {
	comps  []Component
	idlers []Idler // parallel to comps; nil entries never sleep

	// awake is the active set, a bitmap over registration indices (bit
	// i%64 of word i/64 is component i), and nAwake counts its members.
	// Step visits the set in registration order, the order dense
	// evaluates everything in, so anything numbered in evaluation order
	// (packet IDs) numbers alike under every kernel. A Wake during the
	// Eval phase of a component ahead of the scan is evaluated this
	// cycle; one behind it gets only its Commit.
	awake  []uint64
	nAwake int
	inEval bool
	dense  bool // activity scheduling disabled: evaluate everything
	noWarp bool // time warping disabled: step every cycle

	wakePending []bool // parallel to comps; dedups pending
	pending     []int
	timers      []wakeTimer // min-heap on cycle
	// lastArmed coalesces repeated WakeAt calls: the most recent timer
	// cycle pushed for each component and still pending. A periodic
	// component that re-arms the same deadline every Eval would
	// otherwise leak one heap slot per call.
	lastArmed []uint64
	// changed is parallel to comps: the marks of the component's
	// watched wires that changed since its last TakeChanged, 16 bits
	// each, enough for a router's ten ports.
	changed []uint16

	dirty    []latcher // wires with a staged Set awaiting this edge
	allWires []latcher // every wire of a dense clock, latched every cycle

	// cancel, when non-nil, is consulted between executed steps of
	// Run/RunUntil/RunUntilQuiescent (every cancelCheckStride steps);
	// returning true stops the run early. See SetCancel.
	cancel      func() bool
	cancelCtr   int
	cancelFired bool // latched first true result; reset by SetCancel

	cycle       uint64
	probes      []func(cycle uint64)
	rangeProbes []func(from, to uint64)
}

// Register adds comp to the clock, active, and returns its Handle, the
// only way to wake it: a constructor registers its component before it
// hands the Handle to Watch, an Endpoint's SetOwner or a UART's
// constructor.
// Registration order is evaluation order, so it fixes anything numbered
// in that order (packet IDs). Registering the same component twice
// double-clocks it; callers must not do that.
func (c *Clock) Register(comp Component) Handle {
	i := len(c.comps)
	c.comps = append(c.comps, comp)
	id, _ := comp.(Idler)
	c.idlers = append(c.idlers, id)
	c.wakePending = append(c.wakePending, false)
	c.changed = append(c.changed, 0)
	c.lastArmed = append(c.lastArmed, 0)
	if i%64 == 0 {
		c.awake = append(c.awake, 0)
	}
	c.activate(i)
	return Handle{clk: c, idx: i}
}

// Probe registers a function invoked after every executed cycle
// commits, with the just-completed cycle number. Probes observe
// post-edge state; they are the hook used for waveform tracing and
// statistics. Probes run every executed cycle regardless of activity,
// but cycles skipped by time warping are reported through ProbeRange
// instead (state is frozen across a skipped span, so a sampling probe
// misses nothing; an accumulating probe must integrate the span).
func (c *Clock) Probe(fn func(cycle uint64)) {
	c.probes = append(c.probes, fn)
}

// ProbeRange registers a function invoked whenever time warping skips a
// dead span, with the inclusive interval [from, to] of skipped cycles.
// It runs before the step that follows the span executes. No component
// evaluated and no wire changed during [from, to] — the simulation
// state the hook observes is exactly the state that held throughout —
// so a per-cycle accumulator integrates the span as (to - from + 1)
// cycles of the current state and remains bit-identical to dense
// evaluation. Hooks are never called with an empty span.
func (c *Clock) ProbeRange(fn func(from, to uint64)) {
	c.rangeProbes = append(c.rangeProbes, fn)
}

// Cycle reports how many clock cycles have elapsed.
func (c *Clock) Cycle() uint64 { return c.cycle }

// ComponentCount reports how many components are registered.
func (c *Clock) ComponentCount() int { return len(c.comps) }

// ActiveCount reports how many components will be evaluated next cycle
// (pending wakes not yet applied). With activity scheduling disabled it
// is the total component count.
func (c *Clock) ActiveCount() int {
	if c.dense {
		return len(c.comps)
	}
	return c.nAwake
}

// Handle is the wake token Register returns for one component. The
// zero Handle names no component and all its methods are no-ops.
type Handle struct {
	clk *Clock
	idx int
}

// Wake puts the component back into the active set. Called during the
// Eval phase it joins the current cycle (its Commit runs on this edge);
// called at any other time — from a wire watcher, a probe, or code
// outside Step — it takes effect at the next Step. Waking an active
// component is a no-op, so callers need not track sleep state.
func (h Handle) Wake() {
	if h.clk != nil {
		h.clk.wakeIndex(h.idx)
	}
}

// Changed reports the component's 16-bit change mask: the OR of the
// marks (see Watch) of its watched wires that changed at a clock edge
// since its last TakeChanged. A router's holds its inputs' tx changes
// and, above them, its outputs' ack changes. A component that takes
// the mask in every Eval finds in it, after an edge, that edge's
// changes alone. The zero Handle reports 0.
func (h Handle) Changed() uint16 {
	if h.clk == nil {
		return 0
	}
	return h.clk.changed[h.idx]
}

// TakeChanged reports the change mask, as Changed does, and clears it.
func (h Handle) TakeChanged() uint16 {
	if h.clk == nil {
		return 0
	}
	m := h.clk.changed[h.idx]
	h.clk.changed[h.idx] = 0
	return m
}

// WakeAt schedules the component to be active during the step that ends
// at the given cycle count (i.e. it evaluates the transition to that
// cycle). A cycle not in the future degenerates to Wake at the next
// Step. Repeated WakeAt calls for the same component and cycle are
// coalesced into one timer, so a component may safely re-arm its
// deadline on every Eval without growing the timer heap.
//
// Timers are recorded in dense mode too: activation is moot (everything
// already runs every cycle) but an armed timer marks in-flight work —
// a UART mid-bit, a router mid routing-delay — and must hold off
// Quiescent until it fires, exactly as it does under activity
// scheduling.
func (h Handle) WakeAt(cycle uint64) {
	c, i := h.clk, h.idx
	if c == nil {
		return
	}
	if cycle <= c.cycle+1 {
		c.wakeIndex(i)
		return
	}
	if c.lastArmed[i] == cycle {
		return // duplicate of a still-pending timer
	}
	c.lastArmed[i] = cycle
	// Push onto the min-heap.
	c.timers = append(c.timers, wakeTimer{cycle: cycle, idx: i})
	for j := len(c.timers) - 1; j > 0; {
		parent := (j - 1) / 2
		if c.timers[parent].cycle <= c.timers[j].cycle {
			break
		}
		c.timers[parent], c.timers[j] = c.timers[j], c.timers[parent]
		j = parent
	}
}

func (c *Clock) activate(i int) {
	if w, b := &c.awake[i>>6], uint64(1)<<(i&63); *w&b == 0 {
		*w |= b
		c.nAwake++
	}
}

// wakeIndex wakes component i: Handle.Wake and the wire latch's wake
// of a watcher.
func (c *Clock) wakeIndex(i int) {
	if c.dense {
		return
	}
	if c.inEval {
		c.activate(i)
		return
	}
	if !c.wakePending[i] {
		c.wakePending[i] = true
		c.pending = append(c.pending, i)
	}
}

// applyWakes moves pending and due timer wakes into the active set. It
// runs at the top of Step, so a wake staged in cycle k activates its
// component for cycle k+1.
func (c *Clock) applyWakes() {
	next := c.cycle + 1
	for len(c.timers) > 0 && c.timers[0].cycle <= next {
		c.activate(c.timers[0].idx)
		if c.lastArmed[c.timers[0].idx] == c.timers[0].cycle {
			c.lastArmed[c.timers[0].idx] = 0
		}
		// Pop the heap root.
		last := len(c.timers) - 1
		c.timers[0] = c.timers[last]
		c.timers = c.timers[:last]
		for j := 0; ; {
			l, r := 2*j+1, 2*j+2
			small := j
			if l < last && c.timers[l].cycle < c.timers[small].cycle {
				small = l
			}
			if r < last && c.timers[r].cycle < c.timers[small].cycle {
				small = r
			}
			if small == j {
				break
			}
			c.timers[small], c.timers[j] = c.timers[j], c.timers[small]
			j = small
		}
	}
	if len(c.pending) > 0 {
		for _, i := range c.pending {
			c.wakePending[i] = false
			c.activate(i)
		}
		c.pending = c.pending[:0]
	}
}

// PendingTimers reports how many WakeAt timers are armed (after
// coalescing). It exists for tests and diagnostics.
func (c *Clock) PendingTimers() int { return len(c.timers) }

// ErrCanceled reports that a run was stopped early by a cancellation
// hook installed with SetCancel — a wall-clock deadline, a context, or
// a simulated-cycle budget imposed from outside the simulation.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckStride bounds how stale an observed cancellation can be:
// an armed hook is consulted on the first executed step of a run loop
// and then once every cancelCheckStride steps, keeping its cost off
// the per-step hot path. Cancellation aborts a run whose results the
// caller discards, so the exact stop cycle does not need to be
// deterministic — only bounded.
const cancelCheckStride = 64

// SetCancel installs (or, with nil, removes) a cancellation hook for
// this clock. The hook is consulted between executed steps of Run,
// RunUntil and RunUntilQuiescent; when it returns true the run stops
// early — Run simply returns with fewer cycles elapsed, the
// error-returning entry points return ErrCanceled. The hook must be
// cheap: a context Err poll, a cycle comparison.
func (c *Clock) SetCancel(fn func() bool) {
	c.cancel = fn
	c.cancelCtr = 0
	c.cancelFired = false
}

// canceled consults the cancellation hook, at most once every
// cancelCheckStride calls. A true result latches: once a run has been
// cancelled, every later run loop stops at its first check without
// re-consulting the hook, until SetCancel installs a new one.
func (c *Clock) canceled() bool {
	if c.cancelFired {
		return true
	}
	if c.cancel == nil {
		return false
	}
	if c.cancelCtr > 0 {
		c.cancelCtr--
		return false
	}
	c.cancelCtr = cancelCheckStride - 1
	c.cancelFired = c.cancel()
	return c.cancelFired
}

// warpUnbounded caps nothing: Step outside Run/RunUntil has no cycle
// budget and may jump to any armed timer.
const warpUnbounded = ^uint64(0)

// warp jumps the cycle counter over a dead span. A span is dead when
// the active set is empty, no wakes are pending and no wire holds a
// staged value: nothing can change until the earliest armed timer
// fires, so the steps in between would execute nothing. The counter
// jumps so that the next executed step ends at that timer's cycle —
// or at limit, when the caller's budget (or the absence of any timer,
// under a finite limit) caps the jump first. Skipped spans are
// reported to ProbeRange hooks.
func (c *Clock) warp(limit uint64) {
	if c.dense || c.noWarp ||
		c.nAwake != 0 || len(c.pending) != 0 || len(c.dirty) != 0 {
		return
	}
	target := limit
	if len(c.timers) > 0 && c.timers[0].cycle < target {
		target = c.timers[0].cycle
	}
	if target == warpUnbounded || target <= c.cycle+1 {
		return
	}
	from := c.cycle + 1
	c.cycle = target - 1
	// A warp can cross an arbitrary span of simulated time, so a
	// cycle-budget cancellation hook is re-consulted on the very next
	// check instead of waiting out the stride (warps are rare — one per
	// dead span — so this costs nothing on the hot path).
	c.cancelCtr = 0
	for _, p := range c.rangeProbes {
		p(from, target-1)
	}
}

// Step advances the simulation to the next event. With time warping
// enabled (the default) and the clock momentarily dead — no active
// components, no pending wakes, no staged wires — the cycle counter
// first jumps so that this step executes the earliest armed WakeAt
// timer, skipping the dead cycles in between; otherwise (and always
// under the nowarp and dense kernels) exactly one cycle executes: wake, Eval the
// active set, Commit it, latch staged wires, then retire idle
// components.
func (c *Clock) Step() {
	c.warp(warpUnbounded)
	c.step()
}

// step executes exactly one clock cycle: wake, Eval, Commit, latch,
// advance the counter, run the probes, retire idle components.
func (c *Clock) step() {
	// In dense mode timers have no activation effect (everything is
	// already active), but due ones must still pop so Quiescent sees
	// the in-flight work they mark retire on schedule.
	c.applyWakes()
	if c.dense {
		for _, comp := range c.comps {
			comp.Eval()
		}
		for _, comp := range c.comps {
			comp.Commit()
		}
		// The dense reference latches every wire every cycle, exactly
		// like the original kernel; latch also resets the dirty marks,
		// so the list only needs truncating.
		for _, w := range c.allWires {
			w.latch()
		}
		c.dirty = c.dirty[:0]
	} else {
		// The Eval scan re-reads its word after every Eval, so a
		// component woken ahead of it is evaluated this cycle; the Commit
		// scan visits every woken one, and its Commit latches whatever
		// the waker staged on it, exactly as in a dense run. A step with
		// nothing awake (nowarp stepping a dead span) skips both.
		if c.nAwake != 0 {
			c.inEval = true
			for w := range c.awake {
				for m := c.awake[w]; m != 0; {
					b := bits.TrailingZeros64(m)
					c.comps[w<<6|b].Eval()
					m = c.awake[w] &^ (2<<b - 1)
				}
			}
			c.inEval = false
			for w, m := range c.awake {
				for ; m != 0; m &= m - 1 {
					c.comps[w<<6|bits.TrailingZeros64(m)].Commit()
				}
			}
		}
		// Only wires whose driver staged a value this cycle need
		// latching; the watcher of a wire whose latched value changes is
		// woken here.
		for _, w := range c.dirty {
			w.latch()
		}
		c.dirty = c.dirty[:0]
	}
	c.cycle++
	for _, p := range c.probes {
		p(c.cycle)
	}
	if c.dense || c.nAwake == 0 {
		return
	}
	for w, m := range c.awake {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if id := c.idlers[w<<6|b]; id != nil && id.Idle() {
				c.awake[w] &^= 1 << b
				c.nAwake--
			}
		}
	}
}

// Run advances the simulation by exactly n cycles of simulated time.
// Dead spans inside the window are warped over (never past the window's
// end), so the number of executed steps may be far smaller than n. A
// cancellation hook (SetCancel) firing mid-run makes Run return early,
// with the cycle counter wherever the last executed step left it;
// callers that arm a hook re-check its condition after Run returns.
func (c *Clock) Run(n uint64) {
	target := c.cycle + n
	for c.cycle < target {
		if c.canceled() {
			return
		}
		c.warp(target)
		c.step()
	}
}

// ErrTimeout reports that RunUntil or RunUntilQuiescent exhausted its
// cycle budget before the stop condition became true.
var ErrTimeout = errors.New("sim: watchdog timeout")

// RunUntil steps the clock until pred returns true, or fails with
// ErrTimeout after maxCycles additional cycles of simulated time. pred
// is evaluated after each executed cycle commits; cycles skipped by
// time warping cannot change state, so a predicate over simulation
// state flips at exactly the same cycle either way. The first step
// never warps: a pred that already holds returns one cycle after the
// call under every kernel, where a warp would first jump to the next
// timer. pred is not called before that step, because predicates may
// have side effects (popping a received message, say).
func (c *Clock) RunUntil(pred func() bool, maxCycles uint64) error {
	target := c.cycle + maxCycles
	for first := true; c.cycle < target; first = false {
		if c.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, c.cycle)
		}
		if !first {
			c.warp(target)
		}
		c.step()
		if pred() {
			return nil
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrTimeout, maxCycles)
}

// Quiescent reports whether the simulation can make no further progress
// on its own: every component is asleep (or reports Idle, in dense
// mode), no wakes are pending, no timers are armed and no wire has a
// staged value awaiting an edge. External stimulus — a Send on an
// endpoint, bytes queued on a UART — ends quiescence.
//
// A component that does not implement Idler never leaves the active
// set, so a clock holding one can never report quiescence (its
// simulation stays correct; only Quiescent/RunUntilQuiescent are
// unavailable and callers fall back to their cycle budgets).
func (c *Clock) Quiescent() bool {
	if len(c.dirty) > 0 {
		return false
	}
	if c.dense {
		if len(c.timers) != 0 {
			return false // armed timers mark in-flight work in any mode
		}
		for _, id := range c.idlers {
			if id == nil || !id.Idle() {
				return false
			}
		}
		return true
	}
	return c.nAwake == 0 && len(c.pending) == 0 && len(c.timers) == 0
}

// RunUntilQuiescent steps the clock until the simulation is quiescent —
// all in-flight activity has drained — or fails with ErrTimeout after
// maxCycles. It replaces the "run a generous fixed cycle count and hope
// everything drained" idiom: drivers stop exactly when the hardware
// does, without polling a predicate every cycle.
func (c *Clock) RunUntilQuiescent(maxCycles uint64) error {
	target := c.cycle + maxCycles
	for c.cycle < target {
		if c.Quiescent() {
			return nil
		}
		if c.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, c.cycle)
		}
		c.warp(target)
		c.step()
	}
	if c.Quiescent() {
		return nil
	}
	return fmt.Errorf("%w: not quiescent after %d cycles", ErrTimeout, maxCycles)
}
