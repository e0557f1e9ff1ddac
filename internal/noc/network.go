package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Config parameterizes a Hermes network instance. The zero value is not
// valid; use Defaults or fill every field. MultiNoC's values (§2.1) are
// the defaults: 8-bit flits, 2-flit buffers, XY routing, 14-cycle
// per-hop routing time (2 x Ri with Ri = 7) and a 50 MHz router clock.
type Config struct {
	// Width and Height give the mesh dimensions in routers.
	Width, Height int
	// FlitBits is the flit width (8 in MultiNoC; 16 and 32 supported
	// for the flit-width ablation).
	FlitBits int
	// BufDepth is the input-buffer depth in flits (2 in MultiNoC).
	BufDepth int
	// RouteCycles is the effective per-hop header latency contribution
	// in clock cycles; the paper's formula uses 2 x Ri with Ri >= 7, so
	// the MultiNoC value is 14.
	RouteCycles int
	// Routing selects the routing algorithm (RouteXY in the paper).
	Routing RoutingFunc
	// ClockMHz converts cycle counts into wall-clock figures for
	// throughput reporting (50 MHz: the Hermes router's rated clock).
	ClockMHz float64
}

// Defaults returns the MultiNoC configuration for a width x height mesh.
func Defaults(width, height int) Config {
	return Config{
		Width:       width,
		Height:      height,
		FlitBits:    8,
		BufDepth:    2,
		RouteCycles: 14,
		Routing:     RouteXY,
		ClockMHz:    50,
	}
}

// internalRouteDelay converts the effective per-hop figure into the
// control logic's countdown: the request-detect cycle and the 2-cycle
// header link transfer account for 3 of the per-hop cycles.
func (c Config) internalRouteDelay() int {
	d := c.RouteCycles - 3
	if d < 1 {
		d = 1
	}
	return d
}

// maxBufDepth bounds Config.BufDepth. New allocates every input
// buffer's slots up front, so an unbounded depth from a submitted job
// would be an allocation the Go runtime cannot survive, not an error;
// 1,024 flits is 64 times E3's deepest buffer.
const maxBufDepth = 1024

// Validate reports the first invalid field of the configuration, nil
// when it is usable. Constructors call it themselves; services that
// accept configurations from the network call it up front to turn a
// malformed request into a client error instead of a recovered crash.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Height < 1:
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	case c.Width > 16 || c.Height > 16:
		return fmt.Errorf("noc: mesh %dx%d exceeds the 16x16 addressing limit", c.Width, c.Height)
	case c.FlitBits != 8 && c.FlitBits != 16 && c.FlitBits != 32:
		return fmt.Errorf("noc: unsupported flit width %d", c.FlitBits)
	case c.BufDepth < 1 || c.BufDepth > maxBufDepth:
		return fmt.Errorf("noc: buffer depth %d outside 1..%d flits", c.BufDepth, maxBufDepth)
	case c.RouteCycles < 4:
		return fmt.Errorf("noc: RouteCycles %d below pipeline minimum 4", c.RouteCycles)
	case c.Routing == nil:
		return fmt.Errorf("noc: nil routing function")
	default:
		return nil
	}
}

// Network is a complete Hermes mesh: routers, inter-router links and the
// endpoints attached to Local ports, all registered on one clock.
type Network struct {
	cfg     Config
	clk     *sim.Clock
	routers []Router // routers[x*Height+y]
	// links is the slab every link of the mesh lives in: one per
	// direction per adjacent router pair, then two per endpoint. Its
	// length counts the links taken so far; its capacity never grows.
	links []Link
	// endpoints is the slab of Local-port endpoints, endpoints[x*Height+y],
	// allocated by the first NewEndpoint; an entry with a nil net has not
	// been created.
	endpoints []Endpoint
	pathMcast bool // SendMulti mode: path-based vs unicast replication

	nextPktID uint64
	// metas is the network-owned packet-metadata table, allocated in
	// chunks (see metaSlot): PacketID id resolves to entry id-1 counted
	// across the chunks. Flits carry PacketIDs instead of *PacketMeta
	// pointers, so this table is the one place flit indices become
	// metadata. An entry is never reused, and completed points at every
	// delivered one, so a network keeps the metadata of every packet it
	// was ever sent.
	metas     [][]PacketMeta
	completed []*PacketMeta
	// delivered and deliveredFlits count the packets and flits
	// delivered so far; onDelivery are the delivery hooks.
	delivered, deliveredFlits uint64
	onDelivery                []func(*PacketMeta)
	mcast                     MulticastStats
}

// metaSlot locates entry i of the metadata table: chunk c, offset off.
// The chunks hold 8, 16, 32 and 64 entries, then 128 each, so a network
// that carries a handful of packets allocates a small table and a busy
// one a chunk per 128 packets.
func metaSlot(i uint64) (c, off uint64) {
	if i < 120 {
		c = uint64(bits.Len64(i/8+1)) - 1
		return c, i - 8*(1<<c-1)
	}
	return 4 + (i-120)/128, (i - 120) % 128
}

// New builds the mesh and registers every router with clk.
func New(clk *sim.Clock, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:       cfg,
		clk:       clk,
		pathMcast: true,
	}
	// The routers, their input buffers' slots and the links are three
	// allocations, however large the mesh; the endpoints are a fourth,
	// made by the first NewEndpoint.
	w, h := cfg.Width, cfg.Height
	perRouter := int(numPorts) * cfg.BufDepth
	slots := make([]Flit, w*h*perRouter)
	n.routers = make([]Router, w*h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			k := x*h + y
			r := &n.routers[k]
			r.init(Addr{X: x, Y: y}, cfg, clk, slots[k*perRouter:(k+1)*perRouter])
			r.self = clk.Register(r)
		}
	}
	n.links = make([]Link, 0, 2*((w-1)*h+w*(h-1))+2*w*h)
	// Wire neighbour links: one Link per direction per adjacent pair.
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			r := &n.routers[x*h+y]
			if x+1 < w {
				e := &n.routers[(x+1)*h+y]
				n.connectRouters(r, East, e, West)
				n.connectRouters(e, West, r, East)
			}
			if y+1 < h {
				u := &n.routers[x*h+y+1]
				n.connectRouters(r, North, u, South)
				n.connectRouters(u, South, r, North)
			}
		}
	}
	return n, nil
}

// link takes the next link of the slab and readies it on the clock.
func (n *Network) link() *Link {
	n.links = n.links[:len(n.links)+1]
	l := &n.links[len(n.links)-1]
	l.init(n.clk)
	return l
}

// connectRouters wires one unidirectional link from an output port of
// src to an input port of dst.
func (n *Network) connectRouters(src *Router, outp Port, dst *Router, inp Port) {
	l := n.link()
	src.connectOut(outp, l)
	dst.connectIn(inp, l)
}

// SetPathMulticast selects the delivery mode of subsequent SendMulti
// calls: path-based (the default) routes one packet along a canonical
// path visiting every destination, each intermediate endpoint absorbing
// a copy and re-injecting towards the next stop; disabled, SendMulti
// falls back to unicast replication — one independent copy per
// destination staged at the source — which is the reference oracle the
// multicast differential tests compare against. Groups already in
// flight keep the mode they were sent under.
func (n *Network) SetPathMulticast(on bool) { n.pathMcast = on }

// MulticastStats aggregates multicast activity across the network.
type MulticastStats struct {
	// Groups counts SendMulti calls accepted.
	Groups uint64
	// Copies counts per-destination deliveries completed.
	Copies uint64
	// Dropped counts requested destinations skipped at send time
	// because no endpoint exists at the address.
	Dropped uint64
}

// MulticastStats reports the delivered/dropped multicast counters.
func (n *Network) MulticastStats() MulticastStats { return n.mcast }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Clock returns the clock every router and endpoint of the network is
// registered on.
func (n *Network) Clock() *sim.Clock { return n.clk }

// Router returns the router at a, or nil when out of range.
func (n *Network) Router(a Addr) *Router {
	if a.X < 0 || a.X >= n.cfg.Width || a.Y < 0 || a.Y >= n.cfg.Height {
		return nil
	}
	return &n.routers[a.X*n.cfg.Height+a.Y]
}

// NewEndpoint creates, wires and registers the endpoint on the Local
// port of router a. Each router supports exactly one endpoint.
func (n *Network) NewEndpoint(a Addr) (*Endpoint, error) {
	r := n.Router(a)
	if r == nil {
		return nil, fmt.Errorf("noc: no router at %s", a)
	}
	if n.endpoints == nil {
		n.endpoints = make([]Endpoint, len(n.routers))
	}
	ep := &n.endpoints[a.X*n.cfg.Height+a.Y]
	if ep.net != nil {
		return nil, fmt.Errorf("noc: endpoint at %s already exists", a)
	}
	toRouter, fromRouter := n.link(), n.link()
	r.connectIn(Local, toRouter)
	r.connectOut(Local, fromRouter)
	*ep = Endpoint{
		net:  n,
		addr: a,
		clk:  n.clk,
		snd:  sender{link: toRouter},
		rcv:  receiver{link: fromRouter},
	}
	ep.self = n.clk.Register(ep)
	sim.Watch(&fromRouter.Tx, ep.self, 0)
	sim.Watch(&toRouter.Ack, ep.self, 0)
	return ep, nil
}

// Endpoint returns the endpoint at a, or nil if none was created.
func (n *Network) Endpoint(a Addr) *Endpoint {
	if n.Router(a) == nil || n.endpoints == nil {
		return nil
	}
	if ep := &n.endpoints[a.X*n.cfg.Height+a.Y]; ep.net != nil {
		return ep
	}
	return nil
}

// Completed returns the metadata of every packet fully delivered so
// far, in delivery order.
func (n *Network) Completed() []*PacketMeta { return n.completed }

// Delivered reports how many packets have been fully delivered.
func (n *Network) Delivered() uint64 { return n.delivered }

// DeliveredFlits reports how many flits the delivered packets carried,
// header and size flits included.
func (n *Network) DeliveredFlits() uint64 { return n.deliveredFlits }

// OnDelivery registers fn to be called with each packet's metadata when
// the packet is delivered, its EjectCycle stamped, in delivery order:
// the order of Completed. Hooks run in the order they were registered,
// inside the destination endpoint's Eval, so a hook may record what it
// is given but must not send or step the clock.
func (n *Network) OnDelivery(fn func(*PacketMeta)) { n.onDelivery = append(n.onDelivery, fn) }

// allocMeta stamps fresh packet metadata for a packet e sends. IDs
// number the network's packets from 1 in allocation order: the order
// their senders evaluate, which every kernel keeps to registration
// order, so a packet has the same ID under every kernel.
func (n *Network) allocMeta(e *Endpoint, dst Addr, payload int) *PacketMeta {
	c, off := metaSlot(n.nextPktID)
	n.nextPktID++
	if off == 0 {
		n.metas = append(n.metas, make([]PacketMeta, 8<<min(c, 4)))
	}
	m := &n.metas[c][off]
	*m = PacketMeta{
		ID:           n.nextPktID,
		Src:          e.addr,
		Dst:          dst,
		Len:          payload + 2,
		CreatedCycle: e.clk.Cycle(),
		Hops:         HopCount(e.addr, dst),
	}
	return m
}

// Meta resolves a PacketID carried by a flit to the packet's metadata.
// It returns nil for the zero PacketID and for IDs not yet issued.
func (n *Network) Meta(id PacketID) *PacketMeta {
	if id == 0 || uint64(id) > n.nextPktID {
		return nil
	}
	c, off := metaSlot(uint64(id) - 1)
	return &n.metas[c][off]
}

func (n *Network) packetDelivered(e *Endpoint, m *PacketMeta) {
	m.EjectCycle = e.clk.Cycle()
	n.completed = append(n.completed, m)
	n.delivered++
	n.deliveredFlits += uint64(m.Len)
	if m.MC != nil {
		n.mcast.Copies++
	}
	for _, fn := range n.onDelivery {
		fn(m)
	}
}
