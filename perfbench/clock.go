package main

import (
	"syscall"
	"time"
)

// budget bounds a run's measurement by the CPU time the process spends
// in it, normalised by the reference (see reference.go), so that a run
// does the same work however fast the machine is at the moment. Wall
// time caps it as well, in case the program stalls without using CPU.
type budget struct {
	cpu, wall time.Duration
	cpu0      time.Duration
	wall0     time.Time
	// scale is the reference scale (refScale) that turns the CPU time
	// spent into normalised CPU time; 0 counts it as is.
	scale float64
}

// wallFactor is how many times the CPU budget a run may take in wall
// time before it stops anyway.
const wallFactor = 4

func newBudget(seconds float64) budget {
	d := time.Duration(seconds * float64(time.Second))
	return budget{cpu: d, wall: wallFactor * d}
}

func (b *budget) start() { b.cpu0, b.wall0 = cpuTime(), time.Now() }

// spent reports whether the budget is used up.
func (b *budget) spent() bool {
	used := float64(cpuTime() - b.cpu0)
	if b.scale > 0 {
		used *= b.scale
	}
	return used >= float64(b.cpu) || b.overdue()
}

// overdue reports whether a started run is past its wall-time cap.
func (b *budget) overdue() bool { return !b.wall0.IsZero() && time.Since(b.wall0) >= b.wall }

// half splits the budget in two, for a run made of two passes.
func (b budget) half() budget { return budget{cpu: b.cpu / 2, wall: b.wall / 2} }

// stamp is one moment on both clocks a run reads.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// phase is the wall and process CPU time between two stamps.
type phase struct{ wall, cpu time.Duration }

func (a stamp) until(b stamp) phase { return phase{b.wall.Sub(a.wall), b.cpu - a.cpu} }

// cpuTime reports the CPU time the process has used, in all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// secs converts tracer nanoseconds to seconds.
func secs(ns int64) float64 { return float64(ns) / 1e9 }
