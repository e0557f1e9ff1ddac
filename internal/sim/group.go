package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Group couples several clock domains into one GALS system simulating a
// single shared timeline. Domains exchange state only through mirror
// wires (MirrorWire), whose one-cycle boundary latency is the lookahead
// that lets each domain advance — and warp its own dead spans —
// independently of its neighbours, up to min(upstream horizons) + 1.
//
// Run, RunUntilQuiescent and Step on any grouped Clock delegate here,
// so harness code built against a single Clock drives a sharded system
// unchanged. With SetParallel(false), the default, every domain
// executes cycle c before any executes c+1 and the results are
// bit-identical to registering everything on one Clock; with
// SetParallel(true) each domain runs on its own goroutine under the
// conservative horizon protocol, deterministic for a fixed partition.
type Group struct {
	clocks   []*Clock
	parallel bool
	// quantum is the chunk size (in cycles) a parallel
	// RunUntilQuiescent advances between quiescence checks; quiescence
	// is a cross-domain predicate, so parallel drains join the
	// goroutines at quantum boundaries to evaluate it. The cycle
	// counter may overshoot the quiescence point by up to a quantum;
	// post-quiescence steps change no state, so nothing observes this.
	quantum uint64

	// mu/cond/sleepers park domain goroutines blocked on an upstream
	// horizon. sleepers counts parked (or about-to-park) goroutines so
	// publishers can skip the lock-and-broadcast when nobody waits.
	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int
}

// NewGroup creates a group of n empty clock domains sharing one
// timeline. Components and wires are then built on the individual
// domains (Clock(i)) exactly as on a standalone Clock; cross-domain
// signals are carried by MirrorWire.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("sim: NewGroup needs at least one domain")
	}
	g := &Group{quantum: 4096}
	g.cond = sync.NewCond(&g.mu)
	g.clocks = make([]*Clock, n)
	for i := range g.clocks {
		c := NewClock()
		c.group = g
		c.domIdx = i
		g.clocks[i] = c
	}
	return g
}

// Domains reports the number of clock domains in the group.
func (g *Group) Domains() int { return len(g.clocks) }

// Clock returns domain i.
func (g *Group) Clock(i int) *Clock { return g.clocks[i] }

// Cycle reports the shared timeline's cycle count. Domains agree
// whenever the group is joined (between Run calls).
func (g *Group) Cycle() uint64 { return g.clocks[0].cycle }

// SetParallel selects parallel execution (one goroutine per domain) for
// Run and RunUntilQuiescent. Off — the default — every call runs the
// domains in serial lockstep, bit-identical to a single-Clock build.
// RunUntil is always lockstep: its predicate reads cross-domain state
// after every cycle, which is exactly the synchronization parallel
// execution relaxes.
func (g *Group) SetParallel(on bool) { g.parallel = on }

// SetCancel applies Clock.SetCancel to every domain: one hook shared by
// the whole group. In a parallel run every domain goroutine consults
// the hook independently, so it must be safe for concurrent calls (a
// context Err poll is; a closure over a single Clock's Cycle is not —
// install per-domain closures with Clock.SetCancel for those).
//
// Cancellation abandons the run: a parallel run stopped by the hook may
// leave the domains at unequal cycle counts, so the caller must discard
// the simulation rather than continue it.
func (g *Group) SetCancel(fn func() bool) {
	for _, c := range g.clocks {
		c.SetCancel(fn)
	}
}

// canceled consults every domain's cancellation hook. It is only
// called from the lockstep loops (single-threaded) and between joined
// parallel chunks, never concurrently with domain goroutines.
func (g *Group) canceled() bool {
	for _, c := range g.clocks {
		if c.canceled() {
			return true
		}
	}
	return false
}

// stepLockstep executes exactly one cycle in every domain: every
// domain runs the state half of the cycle (Eval/Commit/latch), then —
// once every producer has latched — the mirror events of this cycle
// are delivered, and finally the observing half (probes, idle
// retirement) runs. Delivering between the halves makes a mirror's
// latched value visible to this cycle's probes on exactly the tick the
// source latched it, so dumps of boundary routers match an unsharded
// build byte for byte; the domain order within each sweep is
// immaterial.
func (g *Group) stepLockstep() {
	for _, c := range g.clocks {
		c.stepCore()
	}
	for _, c := range g.clocks {
		c.drainInbound()
	}
	for _, c := range g.clocks {
		c.stepFinish()
	}
}

// warpLockstep jumps every domain over a group-wide dead span: all
// domains dead, nothing staged, target capped by every domain's
// earliest timer and earliest pending mirror event — the same
// conditions a single Clock holding all components would apply.
func (g *Group) warpLockstep(limit uint64) {
	target := limit
	for _, c := range g.clocks {
		if c.dense || c.noWarp ||
			len(c.activeList) != 0 || len(c.pending) != 0 || len(c.dirty) != 0 {
			return
		}
		if len(c.timers) > 0 && c.timers[0].cycle < target {
			target = c.timers[0].cycle
		}
		if c.inQ != nil {
			if b := c.inboundBound(); b < target {
				target = b
			}
		}
	}
	if target == warpUnbounded || target <= g.clocks[0].cycle+1 {
		return
	}
	for _, c := range g.clocks {
		c.jumpTo(target)
	}
}

// Step advances the whole group to its next event: one lockstep cycle,
// preceded by a group-wide warp over a dead span.
func (g *Group) Step() {
	g.warpLockstep(warpUnbounded)
	g.stepLockstep()
}

// Run advances the shared timeline by exactly n cycles.
func (g *Group) Run(n uint64) {
	target := g.clocks[0].cycle + n
	if g.parallel {
		g.runParallel(target)
		return
	}
	for g.clocks[0].cycle < target {
		if g.canceled() {
			return
		}
		g.warpLockstep(target)
		g.stepLockstep()
	}
}

// RunUntil steps the group in lockstep until pred returns true, or
// fails with ErrTimeout after maxCycles. pred may read state anywhere
// in the system; lockstep keeps every domain at the same cycle when it
// runs, exactly as on a single Clock.
func (g *Group) RunUntil(pred func() bool, maxCycles uint64) error {
	target := g.clocks[0].cycle + maxCycles
	for g.clocks[0].cycle < target {
		if g.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, g.clocks[0].cycle)
		}
		g.warpLockstep(target)
		g.stepLockstep()
		if pred() {
			return nil
		}
	}
	return fmt.Errorf("%w after %d cycles", ErrTimeout, maxCycles)
}

// Quiescent reports whether no domain can make further progress: every
// domain locally quiescent and no mirror event in flight.
func (g *Group) Quiescent() bool {
	for _, c := range g.clocks {
		if !c.quiescentLocal() {
			return false
		}
	}
	return true
}

// RunUntilQuiescent advances until all in-flight activity has drained,
// or fails with ErrTimeout after maxCycles. In parallel mode the
// domains run in quantum-sized chunks between quiescence checks; when
// a chunk ends quiescent, the cycle counters are rewound to the last
// cycle any domain did real work — the exact cycle a lockstep run
// stops at — so the timeline of everything the caller does afterwards
// stays bit-identical to a serial run. The rewound span executed no
// component and changed no state; only probes attached to the group
// could observe it (a cross-mode VCD trace is unaffected: no change
// records are emitted for frozen signals).
func (g *Group) RunUntilQuiescent(maxCycles uint64) error {
	start := g.clocks[0].cycle
	target := start + maxCycles
	for g.clocks[0].cycle < target {
		if g.Quiescent() {
			g.rewindToQuiescence(start)
			return nil
		}
		if g.canceled() {
			return fmt.Errorf("%w at cycle %d", ErrCanceled, g.clocks[0].cycle)
		}
		if g.parallel {
			chunk := target
			if t := g.clocks[0].cycle + g.quantum; t < target {
				chunk = t
			}
			g.runParallel(chunk)
		} else {
			g.warpLockstep(target)
			g.stepLockstep()
		}
	}
	if g.Quiescent() {
		g.rewindToQuiescence(start)
		return nil
	}
	return fmt.Errorf("%w: not quiescent after %d cycles", ErrTimeout, maxCycles)
}

// rewindToQuiescence undoes the chunk-boundary overshoot of a parallel
// drain: it moves every domain's counter back to the group-wide last
// cycle that did real work, never below the drain's own start cycle
// (dead time before the call is the caller's, not the drain's).
// Lockstep drains stop on exactly that cycle already, so the rewind is
// a no-op for them.
func (g *Group) rewindToQuiescence(floor uint64) {
	q := floor
	for _, c := range g.clocks {
		if c.lastActive > q {
			q = c.lastActive
		}
	}
	for _, c := range g.clocks {
		if c.cycle > q {
			c.cycle = q
		}
	}
}

// runParallel advances every domain to exactly the target cycle, one
// goroutine per domain, under the conservative horizon protocol.
func (g *Group) runParallel(target uint64) {
	if len(g.clocks) == 1 {
		c := g.clocks[0]
		for c.cycle < target {
			if c.canceled() {
				return
			}
			c.warp(target)
			c.step()
		}
		return
	}
	for _, c := range g.clocks {
		c.horizon.Store(c.cycle)
	}
	var wg sync.WaitGroup
	wg.Add(len(g.clocks))
	for _, c := range g.clocks {
		go func(c *Clock) {
			defer wg.Done()
			c.runDomain(target)
		}(c)
	}
	wg.Wait()
}

// runDomain is one domain's parallel run loop, mirroring the lockstep
// three-sweep schedule per cycle. The domain warps and runs the state
// half of a cycle within min(upstream horizons)+1 — the one-cycle
// mirror lookahead — publishes its own horizon, then waits until every
// upstream domain has also completed that cycle (after which every
// mirror event of the cycle has been queued), delivers the events, and
// runs the observing half. Each domain publishes its horizon before
// waiting, and the domain with the minimum cycle always satisfies its
// wait (upstream horizons are at least the minimum), so the group as a
// whole cannot deadlock.
func (c *Clock) runDomain(target uint64) {
	g := c.group
	for c.cycle < target {
		// A cancelled domain bows out by publishing its horizon at the
		// run target: downstream domains never block on it again (they
		// advance at most to target themselves, on frozen mirror inputs)
		// and the group joins without deadlock. The caller that armed
		// the hook abandons the run's results, so the uneven stop cycles
		// across domains are never observed.
		if c.canceled() {
			c.horizon.Store(target)
			g.wakeSleepers()
			return
		}
		limit := target
		for _, u := range c.upstream {
			if h := g.clocks[u].horizon.Load() + 1; h < limit {
				limit = h
			}
		}
		c.warp(limit)
		c.stepCore()
		c.horizon.Store(c.cycle)
		g.wakeSleepers()
		if len(c.upstream) > 0 {
			c.waitUpstream(c.cycle)
			c.drainInbound()
		}
		c.stepFinish()
	}
}

// waitUpstream blocks until every upstream domain's horizon reaches
// cyc. It spins briefly (the common case: neighbours are at most a few
// cycles apart), then parks on the group's condition variable.
func (c *Clock) waitUpstream(cyc uint64) {
	g := c.group
	for spin := 0; ; spin++ {
		ok := true
		for _, u := range c.upstream {
			if g.clocks[u].horizon.Load() < cyc {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if spin < 64 {
			runtime.Gosched()
			continue
		}
		// Park. The recheck under the lock closes the race with a
		// publisher: either the horizon store is visible here, or the
		// publisher acquires the lock after us, sees sleepers > 0 and
		// broadcasts.
		g.mu.Lock()
		ok = true
		for _, u := range c.upstream {
			if g.clocks[u].horizon.Load() < cyc {
				ok = false
				break
			}
		}
		if ok {
			g.mu.Unlock()
			return
		}
		g.sleepers++
		g.cond.Wait()
		g.sleepers--
		g.mu.Unlock()
	}
}

// wakeSleepers wakes parked domains after a horizon advance.
func (g *Group) wakeSleepers() {
	g.mu.Lock()
	if g.sleepers > 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// crossEvent is one mirror-wire change crossing a domain boundary: the
// producing wire latched val at the end of cycle `cycle`, so the
// consuming domain applies it before executing the step that ends at
// cycle+1.
type crossEvent struct {
	cycle uint64
	sink  mirrorSink
	val   any
}

// mirrorSink is implemented by mirror wires: applyMirror publishes a
// boxed value of the wire's type in the consuming domain.
type mirrorSink interface{ applyMirror(val any) }

// crossQueue carries mirror events from one producing domain to one
// consuming domain, in latch order. The mutex is the happens-before
// edge for the value payload; ordering and capacity need no further
// protocol because the horizon handshake guarantees the consumer never
// needs an event the producer has not yet queued.
type crossQueue struct {
	mu   sync.Mutex
	evs  []crossEvent
	head int
}

func (q *crossQueue) push(cycle uint64, sink mirrorSink, val any) {
	q.mu.Lock()
	q.evs = append(q.evs, crossEvent{cycle: cycle, sink: sink, val: val})
	q.mu.Unlock()
}

// peekCycle reports the earliest pending event's latch cycle.
func (q *crossQueue) peekCycle() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.evs) {
		return 0, false
	}
	return q.evs[q.head].cycle, true
}

// drainTo applies, in order, every event latched at or before cycle,
// reporting whether any was.
func (q *crossQueue) drainTo(cycle uint64) bool {
	q.mu.Lock()
	applied := false
	for q.head < len(q.evs) && q.evs[q.head].cycle <= cycle {
		ev := q.evs[q.head]
		q.evs[q.head] = crossEvent{} // drop payload references
		q.head++
		ev.sink.applyMirror(ev.val)
		applied = true
	}
	if q.head == len(q.evs) {
		q.evs = q.evs[:0]
		q.head = 0
	}
	q.mu.Unlock()
	return applied
}

// inQueueFrom returns (creating on demand) the consumer's event queue
// fed by the src domain, and records the upstream dependency for the
// horizon protocol.
func (c *Clock) inQueueFrom(src *Clock) *crossQueue {
	if c.inQ == nil {
		c.inQ = make([]*crossQueue, len(c.group.clocks))
	}
	if c.inQ[src.domIdx] == nil {
		c.inQ[src.domIdx] = &crossQueue{}
		c.upstream = append(c.upstream, src.domIdx)
	}
	return c.inQ[src.domIdx]
}
