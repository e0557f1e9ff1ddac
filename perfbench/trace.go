package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// span is one timed interval of a traced run, recorded by the
// benchmark around its own call into a module's public function (or
// between two observations of that call, such as a probe firing at a
// phase boundary). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Job    int    `json:"job"`
	Self   int64  `json:"self_ns"` // filled in by write
}

// tracer keeps a traced run's spans in memory; write saves them when
// the run ends. Sweep workers record from several goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end int64, parent, job int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// begin opens a span that end closes; the index serves as the parent
// of spans recorded inside it.
func (t *tracer) begin(name string, parent, job int) int {
	return t.add(name, t.now(), 0, parent, job)
}

func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that
// its children cover. Children may overlap one another (concurrent
// workers under one batch), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, as shares of the summed
// duration of the root spans.
func selfByName(spans []span) (names []string, share map[string]float64) {
	self := selfTimes(spans)
	var rootTotal int64
	total := map[string]int64{}
	for i, s := range spans {
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
		}
		if _, ok := total[s.Name]; !ok {
			names = append(names, s.Name)
		}
		total[s.Name] += self[i]
	}
	share = map[string]float64{}
	for n, v := range total {
		share[n] = ratio(float64(v), float64(rootTotal))
	}
	sort.Strings(names)
	return names, share
}

// write saves the spans, with their self times, under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i := range t.spans {
		t.spans[i].Self = self[i]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// clockCounts observes a clock through its probe hooks: executed
// steps, warped cycles and evaluations (the active-set size of each
// executed step). The hooks only read, so a probed run simulates
// exactly what an unprobed one does.
type clockCounts struct {
	clk    *sim.Clock
	steps  uint64
	warped uint64
	evals  uint64
	// onCycle, when set, sees every executed cycle after it is counted.
	onCycle func(cycle uint64)
}

func watchClock(clk *sim.Clock) *clockCounts {
	c := &clockCounts{clk: clk}
	clk.Probe(func(cycle uint64) {
		c.steps++
		c.evals += uint64(clk.ActiveCount())
		if c.onCycle != nil {
			c.onCycle(cycle)
		}
	})
	clk.ProbeRange(func(from, to uint64) { c.warped += to - from + 1 })
	return c
}

// clockSnap is a clockCounts reading at one span boundary.
type clockSnap struct{ cycles, steps, warped, evals uint64 }

func (c *clockCounts) snap() clockSnap {
	return clockSnap{c.clk.Cycle(), c.steps, c.warped, c.evals}
}

func (a clockSnap) sub(b clockSnap) clockSnap {
	return clockSnap{a.cycles - b.cycles, a.steps - b.steps, a.warped - b.warped, a.evals - b.evals}
}

// runtimeSnap reads the Go runtime counters the alloc and gc layers
// report, at one span boundary.
type runtimeSnap struct {
	mallocs, bytes, gcs uint64
	gcCPU, totalCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return runtimeSnap{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcs:      uint64(ms.NumGC),
		gcCPU:    cpuSamples[0].Value.Float64(),
		totalCPU: cpuSamples[1].Value.Float64(),
	}
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeSnap {
	return runtimeSnap{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
