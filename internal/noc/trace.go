package noc

import "repro/internal/vcd"

// AttachVCD registers waveform probes for every port of the given
// routers: the tx/ack handshake bits and the data value of each
// connected input link. Call before simulating; the attachment
// installs one probe on the network's clock. Begin/Flush remain the
// caller's responsibility. The dump is byte-identical under every
// kernel mode: time warp skips only spans in which no wire changes,
// and the writer records only changes.
func AttachVCD(net *Network, w *vcd.Writer, addrs ...Addr) {
	type probe struct {
		link *Link
		tx   *vcd.Signal
		ack  *vcd.Signal
		data *vcd.Signal
	}
	var probes []probe
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
			probes = append(probes, probe{
				link: l,
				tx:   w.Signal(base+"_tx", 1),
				ack:  w.Signal(base+"_ack", 1),
				data: w.Signal(base+"_data", net.cfg.FlitBits),
			})
		}
	}
	if len(probes) == 0 {
		return
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	net.clk.Probe(func(cycle uint64) {
		for _, p := range probes {
			p.tx.Set(b2u(p.link.Tx.Get()))
			p.ack.Set(b2u(p.link.Ack.Get()))
			p.data.Set(uint64(p.link.Data.Get().Data))
		}
		// Tick errors only occur before Begin; probes start after.
		_ = w.Tick(cycle)
	})
}
