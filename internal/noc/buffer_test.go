package noc

import "testing"

func newFifo(depth int) *fifo { return &fifo{slots: make([]Flit, depth)} }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestFifoWrapAround drives a depth-3 fifo through several full
// revolutions of its circular storage with pushes and pops staggered so
// head crosses the slot boundary in every phase, checking FIFO order
// and the Len/Free/At invariants after every edge.
func TestFifoWrapAround(t *testing.T) {
	f := newFifo(3)
	next := uint16(0) // next value to push
	want := uint16(0) // next value expected at the head
	for step := 0; step < 50; step++ {
		if f.Free() > 0 {
			f.StagePush(Flit{Data: next})
			next++
		}
		if f.Len() > 0 && step%3 != 0 { // pop on 2 of 3 steps: occupancy swings full<->empty
			if got := f.Head(); got.Data != want {
				t.Fatalf("step %d: head = %d, want %d", step, got.Data, want)
			}
			f.StagePop()
			want++
		}
		f.Commit()
		if f.Len()+f.Free() != f.Cap() {
			t.Fatalf("step %d: Len %d + Free %d != Cap %d", step, f.Len(), f.Free(), f.Cap())
		}
		for i := 0; i < f.Len(); i++ {
			if got := f.At(i).Data; got != want+uint16(i) {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want+uint16(i))
			}
		}
	}
	if next == want {
		t.Fatal("test never held data in the fifo")
	}
}

// TestFifoSimultaneousPushPop is the streaming steady state: a buffer
// pops its head and accepts a new flit on the same edge. Commit
// applies the pop before the push, so with one free slot the sequence
// sustains forever and the push lands behind the surviving flits.
// A push needs *committed* free space — a staged pop does not free a
// slot for a same-edge push; that remains a panic (receivers gate on
// Free(), which reads committed state, so the router never does this).
func TestFifoSimultaneousPushPop(t *testing.T) {
	f := newFifo(2)
	f.StagePush(Flit{Data: 1})
	f.Commit()
	for v := uint16(2); v <= 6; v++ {
		f.StagePop()
		f.StagePush(Flit{Data: v})
		f.Commit()
		if f.Len() != 1 || f.At(0).Data != v {
			t.Fatalf("after push %d: len %d, head %d", v, f.Len(), f.At(0).Data)
		}
	}

	full := newFifo(2)
	full.StagePush(Flit{Data: 1})
	full.Commit()
	full.StagePush(Flit{Data: 2})
	full.Commit()
	full.StagePop()
	mustPanic(t, "push into full fifo with staged pop", func() { full.StagePush(Flit{Data: 3}) })
}

// TestFifoStagingPanics: the staged-operation preconditions are
// programming errors and must fail loudly, not corrupt the buffer.
func TestFifoStagingPanics(t *testing.T) {
	full := newFifo(1)
	full.StagePush(Flit{Data: 9})
	full.Commit()
	mustPanic(t, "push into full fifo", func() { full.StagePush(Flit{Data: 1}) })

	f := newFifo(2)
	f.StagePush(Flit{Data: 1})
	mustPanic(t, "double push", func() { f.StagePush(Flit{Data: 2}) })

	empty := newFifo(2)
	mustPanic(t, "pop from empty fifo", func() { empty.StagePop() })

	g := newFifo(2)
	g.StagePush(Flit{Data: 1})
	g.Commit()
	g.StagePop()
	mustPanic(t, "double pop", func() { g.StagePop() })

	mustPanic(t, "At past Len", func() { g.At(1) })
	mustPanic(t, "negative At", func() { g.At(-1) })
	mustPanic(t, "Head of empty fifo", func() { empty.Head() })
}

// TestFifoStagedOpsInvisibleUntilCommit: reads between staging and
// Commit must observe the pre-edge state — the register semantics the
// router's Eval phase depends on.
func TestFifoStagedOpsInvisibleUntilCommit(t *testing.T) {
	f := newFifo(2)
	f.StagePush(Flit{Data: 5})
	if f.Len() != 0 || f.Free() != 2 {
		t.Fatalf("staged push visible before Commit: Len %d Free %d", f.Len(), f.Free())
	}
	f.Commit()
	f.StagePop()
	if f.Len() != 1 || f.Head().Data != 5 {
		t.Fatalf("staged pop visible before Commit: Len %d", f.Len())
	}
	f.Commit()
	if f.Len() != 0 {
		t.Fatalf("pop did not apply: Len %d", f.Len())
	}
}
