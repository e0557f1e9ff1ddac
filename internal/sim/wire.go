package sim

// Wire is a single-driver registered signal. A component stages a value
// with Set during Eval; the value becomes visible through Get only after
// the cycle's Commit phase, exactly like a D flip-flop between two
// modules. A wire holds its value until the driver stages a new one.
//
// Wires cooperate with the activity scheduler: a wire only needs
// latching on edges following a Set (an undriven wire holds its value by
// definition), and the watcher registered through Watch is woken
// whenever an edge changes the latched value — the sensitivity-list
// mechanism that lets a wire's reader sleep. Every wire has one reader,
// so it has at most one watcher. T is comparable so the latch can
// detect that change.
//
// A Wire is either made by NewWire or embedded in a larger value and
// readied in place by Init, so a model holding many signals (a mesh's
// links) allocates them in one block. It must not be copied after
// Init: the clock latches it through its address.
type Wire[T comparable] struct {
	cur, next T
	dirty     bool
	mark      uint16 // the bits a change ORs into the watcher's change mask
	clk       *Clock
	watcher   int // the clock index of the component a change wakes, plus one; 0 for none
}

// NewWire creates a wire on clk, carrying v both as the current and
// staged value.
func NewWire[T comparable](clk *Clock, v T) *Wire[T] {
	w := new(Wire[T])
	w.Init(clk, v)
	return w
}

// Init readies a zero wire in place on clk, carrying v both as the
// current and staged value. Only the dense kernel latches every wire
// every cycle, so only a dense clock lists it.
func (w *Wire[T]) Init(clk *Clock, v T) {
	w.cur, w.next, w.clk = v, v, clk
	if clk.dense {
		clk.allWires = append(clk.allWires, w)
	}
}

// Clock returns the clock the wire belongs to, so code handed only a
// wire (a UART given its line) can derive cycle counts and arm timers
// on it.
func (w *Wire[T]) Clock() *Clock { return w.clk }

// Get returns the value latched at the previous clock edge.
func (w *Wire[T]) Get() T { return w.cur }

// Set stages v to become visible after the next clock edge. Only the
// wire's single driver may call Set.
func (w *Wire[T]) Set(v T) {
	w.next = v
	if !w.dirty {
		w.dirty = true
		w.clk.dirty = append(w.clk.dirty, w)
	}
}

// Peek returns the staged value: what the coming edge latches. Logic
// reads its inputs through Get. Peek serves two kinds of model code: a
// driver that checks what its own wire already carries before staging
// it again (the NoC link sender's offer and drop), and Commit code that
// must know what the edge will latch (a router's settled, which reads
// its connected outputs' links; it learns its inputs' tx changes from
// the change mask after the edge instead). The second holds only while
// wires are Set during Eval alone. Tests and tracers use Peek too.
func (w *Wire[T]) Peek() T { return w.next }

func (w *Wire[T]) latch() {
	if w.watcher != 0 && w.cur != w.next {
		w.clk.changed[w.watcher-1] |= w.mark
		w.clk.wakeIndex(w.watcher - 1)
	}
	w.cur = w.next
	w.dirty = false
}

// Watch makes every clock edge that changes the wire's latched value
// wake the component of h, a Handle that Register returned on the
// wire's clock: the wire's one reader. The wake takes effect on the
// cycle in which the watcher first observes the new value through Get,
// so a sleeping watcher sees exactly what it would have seen evaluating
// densely. Each such change also ORs mark into the watcher's 16-bit
// change mask, under every kernel, which Handle.Changed reads and
// Handle.TakeChanged clears: a component watching several wires gives
// each a bit of its own (a router one per input's tx and one per
// output's ack) and visits only the marked ones; one that needs no
// mask passes 0. A zero Handle is ignored; a second watcher panics.
func Watch[T comparable](w *Wire[T], h Handle, mark uint16) {
	if h.clk == nil {
		return
	}
	if w.watcher != 0 {
		panic("sim: Watch on a wire that already has a watcher")
	}
	w.watcher, w.mark = h.idx+1, mark
}
