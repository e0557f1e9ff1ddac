// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so CI can archive benchmark results (e.g.
// BENCH_BASELINE.json) and the performance trajectory of the simulator
// can be tracked across PRs without parsing free-form text.
//
// Usage:
//
//	go test -run XXX -bench . -benchtime 1x . | go run ./cmd/benchjson > BENCH.json
//
// Every benchmark line of the form
//
//	BenchmarkName/sub-8   10   123456 ns/op   42 extra/metric   ...
//
// becomes an entry with its iteration count and every value/unit pair
// as a metric. The "-8" GOMAXPROCS suffix go test appends on multi-core
// hosts is dropped from the name, so cmd/benchgate matches results
// taken on machines with different core counts.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	var entries []Entry
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: trimProcs(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(struct {
		Benchmarks []Entry `json:"benchmarks"`
	}{entries}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}

// trimProcs drops a trailing "-N" GOMAXPROCS suffix from a benchmark
// name.
func trimProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
