package noc

import "sort"

// LatencyStats summarizes packet latencies over a set of delivered
// packets.
type LatencyStats struct {
	Packets int
	// MinCycles/MeanCycles/P95Cycles/MaxCycles describe network latency
	// (injection of the header to delivery of the tail).
	MinCycles  uint64
	MeanCycles float64
	P95Cycles  uint64
	MaxCycles  uint64
	// MeanTotalCycles includes source queueing time.
	MeanTotalCycles float64
}

// Latencies computes latency statistics over metas, ignoring packets
// not yet delivered. It keeps and sorts the latencies; a
// LatencyHistogram fed the same packets as they are delivered gives
// the same answer without keeping them.
func Latencies(metas []*PacketMeta) LatencyStats {
	var s LatencyStats
	var lats []uint64
	var sum, sumTotal uint64
	for _, m := range metas {
		if m.EjectCycle == 0 {
			continue
		}
		l := m.NetworkLatency()
		lats = append(lats, l)
		sum += l
		sumTotal += m.TotalLatency()
	}
	s.Packets = len(lats)
	if s.Packets == 0 {
		return s
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.MinCycles = lats[0]
	s.MaxCycles = lats[len(lats)-1]
	s.P95Cycles = lats[(len(lats)*95)/100]
	s.MeanCycles = float64(sum) / float64(s.Packets)
	s.MeanTotalCycles = float64(sumTotal) / float64(s.Packets)
	return s
}

// LatencyHistogram accumulates LatencyStats one delivered packet at a
// time, without keeping the packets: it counts packets per network
// latency, in a slice that doubles until it covers the largest latency
// seen, and sums both latencies. Its Stats equal Latencies over the
// same packets exactly, in any order of Add.
type LatencyHistogram struct {
	counts               []uint64 // counts[l]: packets of network latency l
	packets, sum, sumTot uint64
}

// Add records one delivered packet.
func (h *LatencyHistogram) Add(m *PacketMeta) {
	l := m.NetworkLatency()
	if l >= uint64(len(h.counts)) {
		counts := make([]uint64, max(2*len(h.counts), int(l)+1, 256))
		copy(counts, h.counts)
		h.counts = counts
	}
	h.counts[l]++
	h.packets++
	h.sum += l
	h.sumTot += m.TotalLatency()
}

// Stats summarizes the packets added so far.
func (h *LatencyHistogram) Stats() LatencyStats {
	s := LatencyStats{Packets: int(h.packets)}
	if h.packets == 0 {
		return s
	}
	// The p95 is the latency at index packets*95/100 of the sorted
	// latencies, as in Latencies.
	p95 := h.packets * 95 / 100
	var below uint64 // packets of lower latency
	for l, c := range h.counts {
		if c == 0 {
			continue
		}
		if below == 0 {
			s.MinCycles = uint64(l)
		}
		if below <= p95 && p95 < below+c {
			s.P95Cycles = uint64(l)
		}
		below += c
		s.MaxCycles = uint64(l)
	}
	s.MeanCycles = float64(h.sum) / float64(s.Packets)
	s.MeanTotalCycles = float64(h.sumTot) / float64(s.Packets)
	return s
}

// FormulaLatency evaluates the paper's minimal-latency model
// latency = (sum Ri + P) x 2 for n routers with Ri = RouteCycles/2 and a
// packet of p flits (header and size included).
func FormulaLatency(cfg Config, hops, packetFlits int) uint64 {
	return uint64(cfg.RouteCycles*hops + 2*packetFlits)
}

// LinkBandwidthMbps is the theoretical peak of one link in Mbit/s:
// FlitBits per 2 cycles at ClockMHz.
func LinkBandwidthMbps(cfg Config) float64 {
	return float64(cfg.FlitBits) / 2 * cfg.ClockMHz
}

// RouterPeakGbps is the paper's headline router figure: five ports
// streaming simultaneously (1 Gbit/s for 8-bit flits at 50 MHz).
func RouterPeakGbps(cfg Config) float64 {
	return 5 * LinkBandwidthMbps(cfg) / 1000
}
