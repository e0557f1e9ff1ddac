package sim

// Wire is a single-driver registered signal. A component stages a value
// with Set during Eval; the value becomes visible through Get only after
// the cycle's Commit phase, exactly like a D flip-flop between two
// modules. A wire holds its value until the driver stages a new one.
//
// Wires cooperate with the activity scheduler: a wire only needs
// latching on edges following a Set (an undriven wire holds its value by
// definition), and watchers registered through Watch are woken whenever
// an edge changes the latched value — the sensitivity-list mechanism
// that lets a wire's reader sleep.
type Wire[T any] struct {
	cur, next T
	clk       *Clock
	name      string
	dirty     bool

	// eq and watchers implement Watch; eq is nil until the first
	// watcher registers. watcherIdx caches each watcher's component
	// index (resolved lazily, since Watch may run before Register) so
	// the latch-time wake avoids a map lookup per edge.
	eq         func(a, b T) bool
	watchers   []Component
	watcherIdx []int
}

// NewWire creates a wire on clk, carrying v both as the current and
// staged value.
func NewWire[T any](clk *Clock, name string, v T) *Wire[T] {
	w := &Wire[T]{cur: v, next: v, clk: clk, name: name}
	clk.allWires = append(clk.allWires, w)
	return w
}

// Name reports the wire's diagnostic name.
func (w *Wire[T]) Name() string { return w.name }

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

// Peek returns the currently staged (pre-edge) value. It exists for
// tests and tracing only; synthesizable component logic must use Get.
func (w *Wire[T]) Peek() T { return w.next }

func (w *Wire[T]) latch() {
	if w.eq != nil && !w.eq(w.cur, w.next) {
		for k, comp := range w.watchers {
			if i := w.watcherIdx[k]; i >= 0 {
				w.clk.wakeIndex(i)
			} else if i, ok := w.clk.index[comp]; ok {
				w.watcherIdx[k] = i
				w.clk.wakeIndex(i)
			}
		}
	}
	w.cur = w.next
	w.dirty = false
}

// Watch registers comps to be woken by the wire's clock whenever a
// clock edge changes the wire's latched value. The wake takes effect on
// the cycle in which the watcher first observes the new value through
// Get, so a sleeping watcher sees exactly what it would have seen
// evaluating densely. (A free function rather than a method because
// change detection needs T comparable, which the Wire type itself does
// not require.)
func Watch[T comparable](w *Wire[T], comps ...Component) {
	if w.eq == nil {
		w.eq = func(a, b T) bool { return a == b }
	}
	w.watchers = append(w.watchers, comps...)
	for range comps {
		w.watcherIdx = append(w.watcherIdx, -1)
	}
}
