package sim

import (
	"context"
	"errors"
	"testing"
)

// ticker is a component that never sleeps, keeping its clock busy so
// run loops execute every cycle.
type ticker struct{ evals int }

func (t *ticker) Eval()   { t.evals++ }
func (t *ticker) Commit() {}

// napper sleeps forever on a far-future timer, so its clock is dead
// and every run warps.
type napper struct {
	clk   *Clock
	self  Handle
	armed bool
}

func (n *napper) Eval() {
	if !n.armed {
		n.armed = true
		n.self.WakeAt(n.clk.Cycle() + 1_000_000_000)
	}
}
func (n *napper) Commit()    {}
func (n *napper) Idle() bool { return n.armed }

func TestCancelStopsRunEarly(t *testing.T) {
	clk := new(Clock)
	tk := &ticker{}
	clk.Register(tk)
	var calls int
	clk.SetCancel(func() bool {
		calls++
		return calls >= 3
	})
	clk.Run(1_000_000)
	if clk.Cycle() >= 1_000_000 {
		t.Fatalf("run was not cancelled: cycle %d", clk.Cycle())
	}
	// The hook fires on the first step and then every stride steps, so
	// the third call lands within three strides.
	if max := uint64(3 * cancelCheckStride); clk.Cycle() > max {
		t.Fatalf("cancel observed after %d cycles, want <= %d", clk.Cycle(), max)
	}
}

func TestCancelRunUntilReturnsErrCanceled(t *testing.T) {
	clk := new(Clock)
	clk.Register(&ticker{})
	clk.SetCancel(func() bool { return true })
	err := clk.RunUntil(func() bool { return false }, 1_000_000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunUntil = %v, want ErrCanceled", err)
	}
	err = clk.RunUntilQuiescent(1_000_000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunUntilQuiescent = %v, want ErrCanceled", err)
	}
}

func TestCancelQuiescencePreemptsCancellation(t *testing.T) {
	// A clock that is already quiescent reports success even with a
	// triggered hook: the drain finished, cancellation has nothing to
	// stop.
	clk := new(Clock)
	clk.SetCancel(func() bool { return true })
	if err := clk.RunUntilQuiescent(1000); err != nil {
		t.Fatalf("RunUntilQuiescent on quiescent clock = %v, want nil", err)
	}
}

func TestCancelContextHook(t *testing.T) {
	clk := new(Clock)
	clk.Register(&ticker{})
	ctx, cancel := context.WithCancel(context.Background())
	clk.SetCancel(func() bool { return ctx.Err() != nil })
	clk.Run(500) // uncancelled: runs to completion
	if clk.Cycle() != 500 {
		t.Fatalf("cycle %d before cancel, want 500", clk.Cycle())
	}
	cancel()
	clk.Run(1_000_000)
	if clk.Cycle() >= 500+uint64(cancelCheckStride) {
		t.Fatalf("cancelled run advanced to %d", clk.Cycle())
	}
}

func TestCancelCycleBudgetHookWithWarp(t *testing.T) {
	// A cycle-budget hook bounds a warping run too: the warp jumps to
	// the armed timer inside the Run window and the next hook check
	// observes the budget exceeded.
	clk := new(Clock)
	n := &napper{clk: clk}
	n.self = clk.Register(n)
	const budget = 10_000
	clk.SetCancel(func() bool { return clk.Cycle() >= budget })
	err := clk.RunUntil(func() bool { return false }, 1_000_000_000_000)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunUntil = %v, want ErrCanceled", err)
	}
	if clk.Cycle() > 1_000_000_001 {
		t.Fatalf("budgeted run escaped to cycle %d", clk.Cycle())
	}
}

func TestCancelClearHook(t *testing.T) {
	clk := new(Clock)
	clk.Register(&ticker{})
	clk.SetCancel(func() bool { return true })
	clk.SetCancel(nil)
	clk.Run(100)
	if clk.Cycle() != 100 {
		t.Fatalf("cycle %d after clearing hook, want 100", clk.Cycle())
	}
}
