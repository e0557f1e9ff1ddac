package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	// root: children cover [10,50] and [90,100], 50 of 100.
	want := []int64{50, 15, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	names, share := selfByName(spans)
	if len(names) != len(spans) || names[0] != "a" {
		t.Errorf("names %v", names)
	}
	// Shares are of the summed root durations, 107.
	if s := share["root"]; s < 50.0/107-1e-9 || s > 50.0/107+1e-9 {
		t.Errorf("root share %v, want %v", s, 50.0/107)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 1)
	child := tr.add("child", tr.now(), tr.now(), root, 1)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[root].End < tr.spans[child].End {
		t.Fatalf("spans %+v", tr.spans)
	}
	if self := selfTimes(tr.spans); self[root] < 0 || self[child] < 0 {
		t.Errorf("negative self time %v", self)
	}
}
