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
// A sleeping component may be woken three ways:
//
//   - Wire.Watch / sim.Watch — a clock edge that changes a watched
//     wire's value wakes the watchers for the next cycle. This is how a
//     router sleeping on empty buffers is woken by the rising tx of an
//     incoming link: the upstream sender stages tx in cycle k, the edge
//     latches it, and the watcher evaluates in cycle k+1 — exactly the
//     cycle in which a dense simulation would first observe the new
//     value. Wake-on-change therefore preserves bit-identical results.
//   - Clock.Wake — an explicit wake, used when state is handed to a
//     sleeping component outside the wire protocol (e.g. a packet
//     staged on an endpoint's injection queue, or a received packet
//     completing for the endpoint's owning IP). A Wake issued during
//     the Eval phase joins the component to the *current* cycle: its
//     Commit runs this edge, so state staged on it by the caller
//     latches on the same edge it would have latched in a dense run.
//     (Such a component may see Commit without a same-cycle Eval; that
//     is safe by construction — a component asleep at Eval time had
//     quiescent combinational outputs, so its skipped Eval was a
//     no-op.) A Wake issued at any other time takes effect at the next
//     Step.
//   - Clock.WakeAt — a timer: the component is woken so that it is
//     active during the step that ends at the given cycle count.
//
// A component may therefore report Idle() exactly when (a) its Eval
// would stage no state change and drive no wire to a new value, and (b)
// every event that could change that fact also wakes it (via a watched
// wire, an explicit Wake from whoever hands it work, or a timer).
// Components that never satisfy this — or that predate the protocol —
// simply do not implement Idler and run every cycle, which is always
// correct, only slower — and, since they never retire from the active
// set, a domain containing one never reports Quiescent (quiescence
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
// only thing that can ever re-start activity is the earliest armed
// WakeAt timer. Step, Run, RunUntil and RunUntilQuiescent therefore
// jump the cycle counter directly to that timer's cycle (bounded by the
// caller's cycle budget) instead of executing the dead span one no-op
// step at a time. A serial transfer that sleeps between bit edges, or a
// low-rate traffic sweep whose injectors sleep between packets, then
// costs executed steps proportional to its *events*, not to simulated
// time.
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
// SetTimeWarp(false) disables the jump (every cycle is stepped, as in
// PR 1) for differential testing; dense mode never warps.
//
// Models extend the same idea below whole-clock granularity by
// *run-batching* their own periodic protocols: instead of stepping a
// multi-cycle exchange wire by wire, a model that can prove the next n
// cycles of the protocol are predetermined schedules WakeAt timers for
// the cycles on which state actually changes and sleeps in between. The
// UARTs batch a serial run this way (one timer per bit edge rather than
// per clock). The contract is the one Idle() already imposes: every
// latch, counter update, and wire change the batched span produces must
// land on exactly the cycle the stepped model would produce it, so
// batching is invisible to differential comparison.
//
// # Clock domains and conservative parallelism
//
// A Clock is one clock domain: components, wires, an active set, a wake
// queue and a timer heap of its own. A Group couples several domains
// GALS-style — each domain is locally synchronous, and domains exchange
// state only over mirror wires (MirrorWire), which carry a value across
// the domain boundary with exactly the one-cycle latency an ordinary
// wire has inside a domain. That latency is the lookahead that makes
// conservative parallel simulation possible: a domain that has
// completed cycle h cannot affect a neighbour before cycle h+1, so the
// neighbour may freely simulate up to min(upstream horizons) + 1
// without ever seeing a value out of order (null-message style, after
// Chandy–Misra–Bryant). Within that bound each domain warps its own
// dead spans, so an idle region skips time even while another region is
// busy — the case a single domain can never warp.
//
// Group.SetParallel selects between two executions of the same
// semantics:
//
//   - Serial lockstep (the default): every domain executes cycle c
//     before any executes c+1, with a group-wide warp when every domain
//     is dead. This is bit-for-bit identical to registering all
//     components on one Clock — the differential reference.
//   - Parallel: one goroutine per domain, horizons exchanged through
//     atomics, blocked domains parking on a condition variable. Results
//     are deterministic for a fixed partition (each domain's execution
//     is sequential and cross-domain values apply at fixed cycles) and
//     bit-identical to lockstep in all simulation state; only the cycle
//     at which budgeted drains stop may overshoot, which no state
//     observes.
//
// The domain/horizon contract for models: a component must interact
// with other domains only through mirror wires (never by calling
// methods on, waking, or arming timers for a component registered on
// another Clock), and everything a component touches in Eval/Commit —
// its wires, its endpoint, its RNG — must live in its own domain. A
// model that honours the Idler contract within its domain stays
// warpable across domain edges for free: inbound mirror events bound
// the warp exactly like timers, so a sleeping domain executes precisely
// the cycles on which upstream values land.
//
// Determinism is unaffected by any of this: the active set only ever
// skips Evals that stage nothing and Commits that latch nothing, wakes
// are applied at deterministic points of the cycle, warped spans are
// provably free of state changes, and iteration stays in registration
// order. The same seed yields bit-identical results with activity
// scheduling on or off, with time warping on or off, and with any
// domain partition serial or parallel;
// SetActivityScheduling(false) restores the dense reference behaviour
// for differential testing.
package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Component is a clocked hardware block. Eval must only read wire values
// published in previous cycles (Wire.Get) and stage new ones (Wire.Set);
// Commit latches internal registers. Components must not communicate
// outside of Wires.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Eval performs the combinational phase for the current cycle.
	Eval()
	// Commit performs the clock-edge phase, latching state computed by
	// Eval.
	Commit()
}

// Idler is optionally implemented by components that can sleep. Idle is
// consulted after every clock edge; a true result removes the component
// from the active set until a watched wire changes, Clock.Wake is
// called, or a Clock.WakeAt timer fires. See the package comment for
// the exact contract.
type Idler interface {
	Component
	// Idle reports whether the component's Eval would currently be a
	// no-op: no staged work, no pending input, all driven wires at
	// their rest values.
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
	active []bool  // parallel to comps: membership in activeList
	index  map[Component]int

	// activeList holds the indices of awake components in arbitrary
	// order (swap-removed on sleep), so Step costs O(active), not
	// O(registered). Order-independence of the two-phase protocol makes
	// the arbitrary order harmless.
	activeList []int
	inEval     bool
	dense      bool // activity scheduling disabled: evaluate everything
	noWarp     bool // time warping disabled: step every cycle

	wakePending []bool // parallel to comps; dedups pending
	pending     []int
	timers      []wakeTimer // min-heap on cycle
	// lastArmed coalesces repeated WakeAt calls: the most recent timer
	// cycle pushed for each component and still pending. A periodic
	// component that re-arms the same deadline every Eval would
	// otherwise leak one heap slot per call.
	lastArmed []uint64

	dirty    []latcher // wires with a staged Set awaiting this edge
	allWires []latcher // every wire, latched unconditionally in dense mode

	// cancel, when non-nil, is consulted between executed steps of
	// Run/RunUntil/RunUntilQuiescent (every cancelCheckStride steps);
	// returning true stops the run early. See SetCancel.
	cancel      func() bool
	cancelCtr   int
	cancelFired bool // latched first true result; reset by SetCancel

	cycle uint64
	// lastActive is the most recent cycle whose step did real work
	// (components evaluated, a wire latched, a timer fired, a mirror
	// event arrived). A parallel RunUntilQuiescent rewinds the counters
	// to the maximum across domains when it detects quiescence, undoing
	// its chunk-boundary overshoot; see Group.RunUntilQuiescent.
	lastActive  uint64
	probes      []func(cycle uint64)
	rangeProbes []func(from, to uint64)

	// Domain coupling (nil/zero for a standalone clock). group links
	// the clock into a Group of domains; inQ holds one event queue per
	// upstream domain delivering mirror-wire changes; horizon publishes
	// the completed cycle to downstream domains during parallel runs.
	group    *Group
	domIdx   int
	inQ      []*crossQueue // one slot per domain; inQ[j] feeds from domain j
	upstream []int         // domain indices that mirror wires into this one
	horizon  atomic.Uint64
}

// NewClock returns an empty clock domain.
func NewClock() *Clock { return &Clock{} }

// Register adds components to the clock domain. Registering the same
// component twice double-clocks it; callers must not do that. Newly
// registered components start active.
func (c *Clock) Register(comps ...Component) {
	if c.index == nil {
		c.index = make(map[Component]int)
	}
	for _, comp := range comps {
		i := len(c.comps)
		c.index[comp] = i
		c.comps = append(c.comps, comp)
		id, _ := comp.(Idler)
		c.idlers = append(c.idlers, id)
		c.active = append(c.active, true)
		c.wakePending = append(c.wakePending, false)
		c.lastArmed = append(c.lastArmed, 0)
		c.activeList = append(c.activeList, i)
	}
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

// Cycle reports how many clock cycles have elapsed in this domain.
// Domains of a group all simulate the same timeline; their counters
// agree whenever the group is joined (between Run calls) and may differ
// transiently while a parallel run is in flight.
func (c *Clock) Cycle() uint64 { return c.cycle }

// Domain reports the clock's index within its Group, 0 for a
// standalone clock.
func (c *Clock) Domain() int { return c.domIdx }

// Group returns the group the clock belongs to, or nil for a
// standalone clock.
func (c *Clock) Group() *Group { return c.group }

// ComponentCount reports how many components are registered. For a
// clock in a Group it aggregates every domain, so harness code holding
// any one domain keeps seeing the whole system.
func (c *Clock) ComponentCount() int {
	if c.group != nil {
		t := 0
		for _, d := range c.group.clocks {
			t += len(d.comps)
		}
		return t
	}
	return len(c.comps)
}

// ActiveCount reports how many components will be evaluated next cycle
// (pending wakes not yet applied). With activity scheduling disabled it
// is the total component count. For a clock in a Group it aggregates
// every domain, so existing harness predicates work unchanged on
// sharded systems.
func (c *Clock) ActiveCount() int {
	if c.group != nil {
		t := 0
		for _, d := range c.group.clocks {
			t += d.activeCountLocal()
		}
		return t
	}
	return c.activeCountLocal()
}

func (c *Clock) activeCountLocal() int {
	if c.dense {
		return len(c.comps)
	}
	return len(c.activeList)
}

// SetTimeWarp enables (the default) or disables dead-cycle skipping.
// With it off, Step/Run/RunUntil* execute every cycle one at a time even
// when the domain is provably dead — the PR 1 reference behaviour, kept
// for differential testing and speedup benchmarks. Both modes produce
// bit-identical simulations. Dense mode never warps regardless of this
// setting.
func (c *Clock) SetTimeWarp(on bool) { c.noWarp = !on }

// SetActivityScheduling enables (the default) or disables the active-set
// optimization. Disabling it evaluates every component every cycle — the
// dense reference kernel, useful for differential testing and
// benchmarking. Both modes produce bit-identical simulations.
func (c *Clock) SetActivityScheduling(on bool) {
	c.dense = !on
	// Reset the active set to everything: correct for entering dense
	// mode, and the safe starting point when re-entering sparse mode
	// (idle components retire again on the next edges).
	c.activeList = c.activeList[:0]
	for i := range c.active {
		c.active[i] = true
		c.activeList = append(c.activeList, i)
	}
}

// Wake puts comp back into the active set. Called during the Eval phase
// it joins the current cycle (its Commit runs on this edge); called at
// any other time — from a wire watcher, a probe, or code outside Step —
// it takes effect at the next Step. Waking an active, nil, or unknown
// component is a no-op, so callers need not track sleep state.
func (c *Clock) Wake(comp Component) {
	if c.dense || comp == nil {
		return
	}
	i, ok := c.index[comp]
	if !ok {
		return
	}
	c.wakeIndex(i)
}

// WakeAt schedules comp to be active during the step that ends at the
// given cycle count (i.e. it evaluates the transition to that cycle). A
// cycle not in the future degenerates to Wake at the next Step.
// Repeated WakeAt calls for the same component and cycle are coalesced
// into one timer, so a component may safely re-arm its deadline on
// every Eval without growing the timer heap.
//
// Timers are recorded in dense mode too: activation is moot (everything
// already runs every cycle) but an armed timer marks in-flight work —
// a UART mid-bit, a router mid routing-delay — and must hold off
// Quiescent until it fires, exactly as it does under activity
// scheduling.
func (c *Clock) WakeAt(cycle uint64, comp Component) {
	if comp == nil {
		return
	}
	i, ok := c.index[comp]
	if !ok {
		return
	}
	c.wakeAtIndex(cycle, i)
}

// wakeAtIndex is WakeAt for a pre-resolved component index.
func (c *Clock) wakeAtIndex(cycle uint64, i int) {
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

// Handle is a pre-resolved wake token for one registered component: the
// result of the Clock's map lookup, captured once so hot paths (a
// router arming its routing-delay deadline, a UART arming a bit edge, a
// traffic injector arming its next packet) wake without a per-event map
// lookup. The zero Handle is invalid and all its methods are no-ops.
type Handle struct {
	clk *Clock
	idx int
}

// Handle resolves comp to a wake token. An unregistered or nil
// component yields the invalid zero Handle.
func (c *Clock) Handle(comp Component) Handle {
	if comp == nil {
		return Handle{}
	}
	i, ok := c.index[comp]
	if !ok {
		return Handle{}
	}
	return Handle{clk: c, idx: i}
}

// Valid reports whether the handle names a registered component.
func (h Handle) Valid() bool { return h.clk != nil }

// Wake is Clock.Wake without the map lookup.
func (h Handle) Wake() {
	if h.clk != nil {
		h.clk.wakeIndex(h.idx)
	}
}

// WakeAt is Clock.WakeAt without the map lookup.
func (h Handle) WakeAt(cycle uint64) {
	if h.clk != nil {
		h.clk.wakeAtIndex(cycle, h.idx)
	}
}

func (c *Clock) activate(i int) {
	if !c.active[i] {
		c.active[i] = true
		c.activeList = append(c.activeList, i)
	}
}

// wakeIndex is Wake for a pre-resolved component index — the wire
// latch fast path, which would otherwise pay a map lookup per watcher
// per edge.
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
// coalescing). It exists for tests and diagnostics. For a clock in a
// Group it aggregates every domain.
func (c *Clock) PendingTimers() int {
	if c.group != nil {
		t := 0
		for _, d := range c.group.clocks {
			t += len(d.timers)
		}
		return t
	}
	return len(c.timers)
}

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
// this clock domain. The hook is consulted between executed steps of
// Run, RunUntil and RunUntilQuiescent; when it returns true the run
// stops early — Run simply returns with fewer cycles elapsed, the
// error-returning entry points return ErrCanceled. The hook must be
// cheap (a context Err poll, a cycle comparison) and, in a parallel
// group run, safe to call from the domain's goroutine: a hook that
// reads a Clock must read only its own.
//
// For a grouped clock the hook covers this domain only; use
// Group.SetCancel to apply one hook to every domain, or install a
// per-domain closure on each (the way a simulated-cycle budget is
// enforced without cross-goroutine cycle reads).
func (c *Clock) SetCancel(fn func() bool) {
	c.cancel = fn
	c.cancelCtr = 0
	c.cancelFired = false
}

// canceled consults the cancellation hook, at most once every
// cancelCheckStride calls. A true result latches: once a run has been
// cancelled, every later check answers true without re-consulting the
// hook, so all of the group's run loops observe the cancellation no
// matter which one's check happened to trigger it.
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
		len(c.activeList) != 0 || len(c.pending) != 0 || len(c.dirty) != 0 {
		return
	}
	target := limit
	if len(c.timers) > 0 && c.timers[0].cycle < target {
		target = c.timers[0].cycle
	}
	if c.inQ != nil {
		if b := c.inboundBound(); b < target {
			target = b
		}
	}
	if target == warpUnbounded || target <= c.cycle+1 {
		return
	}
	c.jumpTo(target)
}

// jumpTo moves the counter so the next executed step ends at target,
// reporting the skipped span to ProbeRange hooks. Callers must have
// established that the span is dead.
func (c *Clock) jumpTo(target uint64) {
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

// inboundBound caps a warp at the first pending mirror-wire event: an
// event latched upstream at cycle k is delivered at the end of this
// domain's step ending at k (between stepCore and stepFinish), so that
// step must execute. Like timers, inbound events bound the warp rather
// than forbid it.
func (c *Clock) inboundBound() uint64 {
	b := warpUnbounded
	for _, q := range c.inQ {
		if q == nil {
			continue
		}
		if k, ok := q.peekCycle(); ok && k < b {
			b = k
		}
	}
	return b
}

// drainInbound applies every pending mirror-wire event latched at or
// before the just-completed cycle. It runs between stepCore and
// stepFinish — after every producer has latched the cycle — so the
// mirrored value is visible to this cycle's probes on the latch tick
// itself, and the mirror's watchers are woken into pending, evaluating
// next cycle: exactly the timing of a local wire latched this cycle.
func (c *Clock) drainInbound() {
	for _, q := range c.inQ {
		if q != nil && q.drainTo(c.cycle) {
			c.lastActive = c.cycle
		}
	}
}

// Step advances the simulation to the next event. With time warping
// enabled (the default) and the domain momentarily dead — no active
// components, no pending wakes, no staged wires — the cycle counter
// first jumps so that this step executes the earliest armed WakeAt
// timer, skipping the dead cycles in between; otherwise (and always
// with SetTimeWarp(false)) exactly one cycle executes: wake, Eval the
// active set, Commit it, latch staged wires, then retire idle
// components.
func (c *Clock) Step() {
	if c.group != nil {
		c.group.Step()
		return
	}
	c.warp(warpUnbounded)
	c.step()
}

// step executes exactly one clock cycle. Grouped domains run the two
// halves with a mirror-event drain in between (see stepCore).
func (c *Clock) step() {
	c.stepCore()
	c.stepFinish()
}

// stepCore is the state-changing half of a cycle: wake, Eval, Commit,
// latch, advance the counter. For a grouped domain the group runner
// inserts the inbound mirror-event drain between stepCore and
// stepFinish — once every producer has latched this cycle — so the
// cycle's probes observe mirrored values on exactly the tick the
// source domain latched them, as an unsharded probe would.
func (c *Clock) stepCore() {
	if c.dense {
		// Timers have no activation effect in dense mode (everything is
		// already active) but due ones must still pop so Quiescent sees
		// the in-flight work they mark retire on schedule.
		c.applyWakes()
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
		c.cycle++
		c.lastActive = c.cycle // dense cycles always count as work
		return
	}
	busy := len(c.activeList) != 0 || len(c.pending) != 0 || len(c.dirty) != 0 ||
		(len(c.timers) > 0 && c.timers[0].cycle <= c.cycle+1)
	c.applyWakes()
	// Explicit index loops: a Wake during the Eval phase appends to
	// activeList, and the appended component must still be visited —
	// its Eval is a no-op (it was asleep, so its inputs are quiescent)
	// but its Commit latches whatever the waker staged on it, exactly
	// as in a dense run.
	c.inEval = true
	for k := 0; k < len(c.activeList); k++ {
		c.comps[c.activeList[k]].Eval()
	}
	c.inEval = false
	for k := 0; k < len(c.activeList); k++ {
		c.comps[c.activeList[k]].Commit()
	}
	// Only wires whose driver staged a value this cycle need latching;
	// watchers of wires whose latched value changes are woken here.
	if len(c.dirty) > 0 {
		for _, w := range c.dirty {
			w.latch()
		}
		c.dirty = c.dirty[:0]
	}
	c.cycle++
	if busy {
		c.lastActive = c.cycle
	}
}

// stepFinish is the observing half of a cycle: probes, then idle
// retirement.
func (c *Clock) stepFinish() {
	for _, p := range c.probes {
		p(c.cycle)
	}
	if c.dense {
		return
	}
	for k := 0; k < len(c.activeList); {
		i := c.activeList[k]
		if id := c.idlers[i]; id != nil && id.Idle() {
			c.active[i] = false
			last := len(c.activeList) - 1
			c.activeList[k] = c.activeList[last]
			c.activeList = c.activeList[:last]
		} else {
			k++
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
	if c.group != nil {
		c.group.Run(n)
		return
	}
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
// state flips at exactly the same cycle either way.
func (c *Clock) RunUntil(pred func() bool, maxCycles uint64) error {
	if c.group != nil {
		return c.group.RunUntil(pred, maxCycles)
	}
	target := c.cycle + maxCycles
	for c.cycle < target {
		if c.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, c.cycle)
		}
		c.warp(target)
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
// set, so a domain containing one can never report quiescence (its
// simulation stays correct; only Quiescent/RunUntilQuiescent are
// unavailable and callers fall back to their cycle budgets).
func (c *Clock) Quiescent() bool {
	if c.group != nil {
		return c.group.Quiescent()
	}
	return c.quiescentLocal()
}

// quiescentLocal is the single-domain quiescence test; a grouped domain
// is additionally held awake by undelivered inbound mirror events.
func (c *Clock) quiescentLocal() bool {
	if len(c.dirty) > 0 {
		return false
	}
	for _, q := range c.inQ {
		if q == nil {
			continue
		}
		if _, pending := q.peekCycle(); pending {
			return false
		}
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
	return len(c.activeList) == 0 && len(c.pending) == 0 && len(c.timers) == 0
}

// RunUntilQuiescent steps the clock until the simulation is quiescent —
// all in-flight activity has drained — or fails with ErrTimeout after
// maxCycles. It replaces the "run a generous fixed cycle count and hope
// everything drained" idiom: drivers stop exactly when the hardware
// does, without polling a predicate every cycle.
func (c *Clock) RunUntilQuiescent(maxCycles uint64) error {
	if c.group != nil {
		return c.group.RunUntilQuiescent(maxCycles)
	}
	target := c.cycle + maxCycles
	for c.cycle < target {
		if c.quiescentLocal() {
			return nil
		}
		if c.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, c.cycle)
		}
		c.warp(target)
		c.step()
	}
	if c.quiescentLocal() {
		return nil
	}
	return fmt.Errorf("%w: not quiescent after %d cycles", ErrTimeout, maxCycles)
}
