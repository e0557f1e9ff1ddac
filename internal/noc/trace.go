package noc

import (
	"repro/internal/sim"
	"repro/internal/vcd"
)

// AttachVCD registers waveform probes for every port of the given
// routers: the tx/ack handshake bits and the data value of each
// connected input link. Call before simulating; the attachment
// installs its own probes on the routers' clock domains. Begin/Flush
// remain the caller's responsibility.
//
// On a sharded network each traced router's probe runs in its own
// domain. Every wire a router's probe samples (including the mirror
// sides of cross-domain links) lives in that domain, so single-domain
// traces are parallel-safe and byte-identical across every kernel
// mode. Tracing routers from several domains into one Writer is
// meaningful only for lockstep runs: a parallel run would interleave
// the domains' Tick calls nondeterministically.
func AttachVCD(net *Network, w *vcd.Writer, addrs ...Addr) {
	type probe struct {
		link *Link
		tx   *vcd.Signal
		ack  *vcd.Signal
		data *vcd.Signal
	}
	byClk := make(map[*sim.Clock][]probe)
	var clks []*sim.Clock // attachment order, for deterministic setup
	for _, a := range addrs {
		r := net.Router(a)
		if r == nil {
			continue
		}
		for p := Port(0); p < numPorts; p++ {
			l := r.in[p].rcv.link
			if l == nil {
				continue
			}
			base := "r" + a.String() + "_" + p.String()
			if _, seen := byClk[r.clk]; !seen {
				clks = append(clks, r.clk)
			}
			byClk[r.clk] = append(byClk[r.clk], probe{
				link: l,
				tx:   w.Signal(base+"_tx", 1),
				ack:  w.Signal(base+"_ack", 1),
				data: w.Signal(base+"_data", net.cfg.FlitBits),
			})
		}
	}
	for _, clk := range clks {
		probes := byClk[clk]
		sample := func(cycle uint64) {
			for _, p := range probes {
				b2u := func(b bool) uint64 {
					if b {
						return 1
					}
					return 0
				}
				p.tx.Set(b2u(p.link.Tx.Get()))
				p.ack.Set(b2u(p.link.Ack.Get()))
				p.data.Set(uint64(p.link.Data.Get().Data))
			}
			// Tick errors only occur before Begin; probes start after.
			_ = w.Tick(cycle)
		}
		clk.Probe(sample)
		// Time warping skips cycles only when no wire can change, so a
		// skipped span contains no VCD change records by construction;
		// the interval hook re-samples the frozen signals at the span's
		// end, which emits nothing, keeping the dump bit-identical to a
		// dense (or warp-off) run while documenting the ProbeRange
		// obligation for per-cycle observers.
		clk.ProbeRange(func(from, to uint64) { sample(to) })
	}
}
