package main

import "testing"

func TestTrimProcs(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkFlitSteadyState-2", "BenchmarkFlitSteadyState"},
		{"BenchmarkMeshSaturated-16", "BenchmarkMeshSaturated"},
		{"BenchmarkAblKernelSchedule/activity-nowarp", "BenchmarkAblKernelSchedule/activity-nowarp"},
		{"BenchmarkAblTimeWarp/div434/warp", "BenchmarkAblTimeWarp/div434/warp"},
	} {
		if got := trimProcs(tc.in); got != tc.want {
			t.Errorf("trimProcs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
