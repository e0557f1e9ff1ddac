package traffic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/noc"
	"repro/internal/sim"
)

// PatternSpec selects a traffic pattern by name with its parameters —
// the one description of a workload's destinations and arrivals, and
// the contract of the pattern library: a spec that survives a JSON round
// trip describes the same workload, so sweep jobs
// (experiments.TrafficJob) and nocsim flags both speak it. Names:
//
//	uniform    uniform random, destination != source
//	transpose  (x,y) → (y,x), diagonal falls back to uniform
//	bitcomp    (x,y) → (W-1-x, H-1-y), centre falls back to uniform
//	bitrev     node index bit-reversed over log2(W*H) bits
//	           (power-of-two node count required)
//	hotspot    weighted hotspot set (Hotspots), remainder uniform
//	bursty     uniform destinations under an on/off arrival process
//	           (Burst, defaulted when nil)
//	trace      deterministic replay of recorded injections (Trace)
//	multicast  every injection is a SendMulti to Group
//
// Burst may also be combined with any destination-pattern name
// (uniform, transpose, bitcomp, bitrev, hotspot) to modulate its
// arrivals; trace and multicast fix their own arrival process. Every
// other parameter belongs to one pattern, and Validate rejects it under
// any other name. The zero value (empty Name) is uniform traffic.
type PatternSpec struct {
	Name string `json:"name"`
	// Hotspots weights the hotspot pattern: each spot receives Weight
	// of all generated packets (weights sum to at most 1), the rest go
	// uniformly to the whole mesh.
	Hotspots []HotspotSpec `json:"hotspots,omitempty"`
	// Burst parameterizes the on/off arrival process.
	Burst *BurstSpec `json:"burst,omitempty"`
	// Trace is the injection log replayed by the trace pattern.
	Trace []TraceEntry `json:"trace,omitempty"`
	// Group is the multicast destination set.
	Group []noc.Addr `json:"group,omitempty"`
	// MulticastUnicast delivers multicast groups by unicast replication
	// (the differential oracle) instead of path-based forwarding.
	MulticastUnicast bool `json:"multicastUnicast,omitempty"`
}

// HotspotSpec is one weighted hotspot destination.
type HotspotSpec struct {
	X      int     `json:"x"`
	Y      int     `json:"y"`
	Weight float64 `json:"weight"`
}

// BurstSpec parameterizes the bursty on/off arrival process: packets
// arrive in bursts whose length in packets is geometric with mean Len,
// injected at the Peak offered rate while the burst lasts, separated
// by geometrically distributed off periods sized so the long-run
// offered rate still equals Config.Rate. The geometric draws keep the
// injector warp-friendly: it sleeps on a WakeAt timer between
// arrivals exactly like the uniform Bernoulli injector.
type BurstSpec struct {
	// Len is the mean burst length in packets (≥ 1). 0 means the
	// default of 8.
	Len float64 `json:"len,omitempty"`
	// Peak is the on-state offered rate in flits/cycle/node (must
	// exceed Config.Rate). 0 means the default of 0.5.
	Peak float64 `json:"peak,omitempty"`
}

// defaulted fills zero Burst fields with the library defaults.
func (b BurstSpec) defaulted() BurstSpec {
	if b.Len == 0 {
		b.Len = 8
	}
	if b.Peak == 0 {
		b.Peak = 0.5
	}
	return b
}

// TraceEntry is one recorded packet injection: at Cycle, the node at
// Src sent Payload payload flits to Dst. A trace is the unit of
// record/replay: RunRecorded collects one per successful injection,
// WriteTrace/ReadTrace serialize them as NDJSON, and the trace pattern
// replays them deterministically.
type TraceEntry struct {
	Cycle   uint64   `json:"c"`
	Src     noc.Addr `json:"src"`
	Dst     noc.Addr `json:"dst"`
	Payload int      `json:"p"`
}

// WriteTrace serializes a trace as NDJSON, one entry per line.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range entries {
		if err := enc.Encode(entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses an NDJSON trace written by WriteTrace. Blank lines
// are skipped.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	var entries []TraceEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e TraceEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// specNames is the set of pattern names the library accepts; the empty
// name is uniform.
var specNames = map[string]bool{
	"": true, "uniform": true, "transpose": true, "bitcomp": true, "bitrev": true,
	"hotspot": true, "bursty": true, "trace": true, "multicast": true,
}

// Validate reports the first reason the spec cannot drive a run on the
// given mesh, nil when it is well-formed. Config.Validate calls it, so
// malformed pattern parameters, and parameters the named pattern does
// not use, surface as client errors (sweepd 400s) instead of failed or
// silently different jobs.
func (s PatternSpec) Validate(ncfg noc.Config) error {
	switch {
	case !specNames[s.Name]:
		return fmt.Errorf("traffic: unknown pattern %q", s.Name)
	case len(s.Hotspots) > 0 && s.Name != "hotspot":
		return fmt.Errorf("traffic: hotspots given for pattern %q; only hotspot uses them", s.Name)
	case (len(s.Group) > 0 || s.MulticastUnicast) && s.Name != "multicast":
		return fmt.Errorf("traffic: multicast group options given for pattern %q; only multicast uses them", s.Name)
	case len(s.Trace) > 0 && s.Name != "trace":
		return fmt.Errorf("traffic: trace given for pattern %q; only trace uses it", s.Name)
	case ncfg.Width*ncfg.Height < 2 && s.Name != "trace" && s.Name != "multicast":
		// Every destination pattern falls back to Uniform, which draws
		// until it finds a node other than the source.
		return fmt.Errorf("traffic: pattern %q needs a mesh of at least two nodes", s.Name)
	}
	inMesh := func(a noc.Addr) bool {
		return a.X >= 0 && a.X < ncfg.Width && a.Y >= 0 && a.Y < ncfg.Height
	}
	switch s.Name {
	case "bitrev":
		n := ncfg.Width * ncfg.Height
		if n&(n-1) != 0 {
			return fmt.Errorf("traffic: bitrev needs a power-of-two node count, got %dx%d", ncfg.Width, ncfg.Height)
		}
	case "hotspot":
		if len(s.Hotspots) == 0 {
			return fmt.Errorf("traffic: hotspot pattern without hotspots")
		}
		var sum float64
		for i, h := range s.Hotspots {
			if !inMesh(noc.Addr{X: h.X, Y: h.Y}) {
				return fmt.Errorf("traffic: hotspot %d at (%d,%d) outside the %dx%d mesh",
					i, h.X, h.Y, ncfg.Width, ncfg.Height)
			}
			if h.Weight <= 0 || h.Weight > 1 {
				return fmt.Errorf("traffic: hotspot %d weight %v outside (0,1]", i, h.Weight)
			}
			sum += h.Weight
		}
		if sum > 1 {
			return fmt.Errorf("traffic: hotspot weights sum to %v > 1", sum)
		}
	case "trace":
		if len(s.Trace) == 0 {
			return fmt.Errorf("traffic: trace pattern with an empty trace")
		}
		if s.Burst != nil {
			return fmt.Errorf("traffic: trace replay fixes its own arrival process; Burst must be nil")
		}
		maxPay := noc.MaxPayload(ncfg.FlitBits)
		for i, e := range s.Trace {
			if e.Cycle < 1 {
				return fmt.Errorf("traffic: trace entry %d at cycle %d (must be ≥ 1)", i, e.Cycle)
			}
			if !inMesh(e.Src) || !inMesh(e.Dst) {
				return fmt.Errorf("traffic: trace entry %d (%s→%s) off the %dx%d mesh",
					i, e.Src, e.Dst, ncfg.Width, ncfg.Height)
			}
			if e.Payload < 1 || e.Payload > maxPay {
				return fmt.Errorf("traffic: trace entry %d payload %d outside [1,%d]", i, e.Payload, maxPay)
			}
		}
	case "multicast":
		if len(s.Group) == 0 {
			return fmt.Errorf("traffic: multicast pattern with an empty destination set")
		}
		if s.Burst != nil {
			return fmt.Errorf("traffic: multicast injection uses geometric gaps; Burst must be nil")
		}
		seen := make(map[noc.Addr]bool, len(s.Group))
		for i, d := range s.Group {
			if !inMesh(d) {
				return fmt.Errorf("traffic: multicast destination %d (%s) outside the %dx%d mesh",
					i, d, ncfg.Width, ncfg.Height)
			}
			if seen[d] {
				return fmt.Errorf("traffic: duplicate multicast destination %s", d)
			}
			seen[d] = true
		}
	}
	if b := s.resolveBurst(); b != nil {
		if b.Len < 1 {
			return fmt.Errorf("traffic: burst length %v below 1 packet", b.Len)
		}
		if b.Peak <= 0 || b.Peak > 1 {
			return fmt.Errorf("traffic: burst peak rate %v outside (0,1]", b.Peak)
		}
	}
	return nil
}

// resolveBurst returns the effective burst parameters: the explicit
// Burst field (defaulted), the library default for the bursty pattern,
// nil when arrivals are not modulated.
func (s PatternSpec) resolveBurst() *BurstSpec {
	if s.Burst != nil {
		b := s.Burst.defaulted()
		return &b
	}
	if s.Name == "bursty" {
		b := BurstSpec{}.defaulted()
		return &b
	}
	return nil
}

// destPattern resolves the spec's destination pattern: nil for the
// modes that carry their own destinations (trace, multicast), uniform
// for the rest of the unpermuted names.
func (s PatternSpec) destPattern() Pattern {
	switch s.Name {
	case "transpose":
		return Transpose
	case "bitcomp":
		return BitComplement
	case "bitrev":
		return BitReverse
	case "hotspot":
		return WeightedHotspots(s.Hotspots)
	case "trace", "multicast":
		return nil
	default:
		return Uniform
	}
}

// BitReverse sends the node whose linear index (y*W + x) is i to the
// node at index bit-reverse(i) over log2(W*H) bits — the classic
// FFT-shuffle stress pattern. It requires a power-of-two node count
// (PatternSpec.Validate enforces it); fixed points fall back to
// uniform like the other deterministic permutations.
func BitReverse(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr {
	n := cfg.Width * cfg.Height
	if n&(n-1) != 0 || n < 2 {
		return Uniform(src, r, cfg)
	}
	width := bits.Len(uint(n)) - 1
	idx := uint(src.Y*cfg.Width + src.X)
	rev := bits.Reverse(idx) >> (bits.UintSize - width)
	d := noc.Addr{X: int(rev) % cfg.Width, Y: int(rev) / cfg.Width}
	if d == src {
		return Uniform(src, r, cfg)
	}
	return d
}

// WeightedHotspots sends to a weighted spot set: a packet targets spot
// i with probability Weight_i (a spot equal to the source redraws
// uniformly), and the remaining 1 - sum(weights) of traffic is uniform.
func WeightedHotspots(spots []HotspotSpec) Pattern {
	cum := make([]float64, len(spots))
	var sum float64
	for i, h := range spots {
		sum += h.Weight
		cum[i] = sum
	}
	return func(src noc.Addr, r *sim.Rand, cfg noc.Config) noc.Addr {
		u := r.Float64()
		for i, c := range cum {
			if u < c {
				d := noc.Addr{X: spots[i].X, Y: spots[i].Y}
				if d == src {
					return Uniform(src, r, cfg)
				}
				return d
			}
		}
		return Uniform(src, r, cfg)
	}
}

// sortTrace orders entries by cycle, preserving input order within a
// cycle — the canonical on-disk and per-node replay order.
func sortTrace(entries []TraceEntry) {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Cycle < entries[j].Cycle })
}
