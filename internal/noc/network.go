package noc

import (
	"fmt"
	"sync"

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
	case c.BufDepth < 1:
		return fmt.Errorf("noc: buffer depth %d < 1", c.BufDepth)
	case c.RouteCycles < 4:
		return fmt.Errorf("noc: RouteCycles %d below pipeline minimum 4", c.RouteCycles)
	case c.Routing == nil:
		return fmt.Errorf("noc: nil routing function")
	default:
		return nil
	}
}

// netShard holds the per-domain slice of the network's bookkeeping, so
// endpoints in different clock domains allocate packet IDs and log
// deliveries without sharing state across goroutines. An unsharded
// network has exactly one shard.
type netShard struct {
	nextPktID uint64
	// metas is the shard's slice of the network-owned packet-metadata
	// table: metas[seq-1] resolves the PacketID with sequence number
	// seq. Flits carry PacketIDs instead of *PacketMeta pointers, so
	// this table is the one place flit indices become metadata. A slot
	// is nilled once its packet is delivered (no flit references it any
	// more), keeping retired metadata collectable on long runs.
	//
	// metasMu guards metas: on a parallel group run the sending domain
	// appends while a receiving domain resolves a cross-domain header,
	// so the slice header must not be read concurrently with growth.
	// The lock is per packet (alloc, header stamp, delivery), never per
	// flit, so it stays off the flit hot path.
	metasMu   sync.Mutex
	metas     []*PacketMeta
	completed []*PacketMeta
	delivered uint64
	// Multicast counters. mcGroups/mcDropped are bumped by the sending
	// endpoint's SendMulti (source shard); mcCopies by each delivering
	// endpoint (receiver shard) — the same ownership split as
	// nextPktID/delivered, so no extra locking is needed.
	mcGroups  uint64
	mcCopies  uint64
	mcDropped uint64
}

// Network is a complete Hermes mesh: routers, inter-router links and the
// endpoints attached to Local ports. It lives in a caller-provided clock
// domain — or, sharded, across the domains of a sim.Group, with routers
// assigned per address and neighbour links crossing domain boundaries
// as mirror-wire pairs.
type Network struct {
	cfg       Config
	clk       *sim.Clock // primary (domain-0) clock; the only one when unsharded
	group     *sim.Group // nil when unsharded
	domainOf  func(Addr) int
	routers   [][]*Router
	endpoints map[Addr]*Endpoint
	shards    []netShard
	pathMcast bool // SendMulti mode: path-based vs unicast replication
}

// New builds the mesh and registers every router with clk.
func New(clk *sim.Clock, cfg Config) (*Network, error) {
	return buildNet(clk, nil, cfg, nil)
}

// NewSharded builds the mesh across the clock domains of g, assigning
// the router at address a to domain domainOf(a) (every value must be a
// valid domain index). Links between routers of different domains
// become cross-domain mirror pairs with identical cycle timing, so a
// sharded network simulates bit-identically to an unsharded one — only
// packet IDs (sharded per domain) and the ordering of the Completed
// log differ. A nil domainOf places every router in domain 0.
func NewSharded(g *sim.Group, cfg Config, domainOf func(Addr) int) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("noc: NewSharded with nil group")
	}
	if domainOf == nil {
		domainOf = func(Addr) int { return 0 }
	}
	return buildNet(g.Clock(0), g, cfg, domainOf)
}

// StripDomains partitions the mesh into d contiguous column strips,
// mapping strip i to domain base+i — the standard partition for
// sharded traffic runs (XY routing keeps most hops inside a strip).
func StripDomains(cfg Config, d, base int) func(Addr) int {
	return func(a Addr) int { return base + a.X*d/cfg.Width }
}

// KernelMode parses kernel k for this mesh: a sharded mode may not ask
// for more domains than the mesh has column strips.
func (c Config) KernelMode(k sim.Kernel) (sim.KernelMode, error) {
	m, err := sim.ParseKernel(k)
	if err == nil && m.Domains > c.Width {
		err = fmt.Errorf("noc: kernel %q: %d domains exceed the mesh's %d column strips", k, m.Domains, c.Width)
	}
	return m, err
}

// Build constructs the mesh on the clocks kernel k names. It is the one
// place a run chooses between a single clock and a sharded group. The
// single-domain modes get a plain sim.Clock; sharded<N> and parallel<N>
// get a sim.Group of host+N domains with the mesh in N column strips
// from domain host on, which leaves domains 0..host-1 to the caller's
// components outside the mesh. Network.Clock is domain 0 either way.
func Build(k sim.Kernel, cfg Config, host int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := cfg.KernelMode(k)
	if err != nil {
		return nil, err
	}
	if m.Domains == 0 {
		clk := sim.NewClock()
		clk.SetActivityScheduling(!m.Dense)
		clk.SetTimeWarp(!m.NoWarp)
		return New(clk, cfg)
	}
	g := sim.NewGroup(host + m.Domains)
	g.SetParallel(m.Parallel)
	return NewSharded(g, cfg, StripDomains(cfg, m.Domains, host))
}

func buildNet(clk *sim.Clock, g *sim.Group, cfg Config, domainOf func(Addr) int) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := 1
	if g != nil {
		shards = g.Domains()
	}
	n := &Network{
		cfg:       cfg,
		clk:       clk,
		group:     g,
		domainOf:  domainOf,
		endpoints: make(map[Addr]*Endpoint),
		shards:    make([]netShard, shards),
		pathMcast: true,
	}
	n.routers = make([][]*Router, cfg.Width)
	for x := 0; x < cfg.Width; x++ {
		n.routers[x] = make([]*Router, cfg.Height)
		for y := 0; y < cfg.Height; y++ {
			a := Addr{X: x, Y: y}
			ck, err := n.clockAt(a)
			if err != nil {
				return nil, err
			}
			r := newRouter(a, cfg, ck)
			n.routers[x][y] = r
			ck.Register(r)
			r.self = ck.Handle(r)
		}
	}
	// Wire neighbour links: one Link per direction per adjacent pair.
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			r := n.routers[x][y]
			if x+1 < cfg.Width {
				e := n.routers[x+1][y]
				n.connectRouters(r, East, e, West, fmt.Sprintf("l%s-E", r.addr))
				n.connectRouters(e, West, r, East, fmt.Sprintf("l%s-W", e.addr))
			}
			if y+1 < cfg.Height {
				u := n.routers[x][y+1]
				n.connectRouters(r, North, u, South, fmt.Sprintf("l%s-N", r.addr))
				n.connectRouters(u, South, r, North, fmt.Sprintf("l%s-S", u.addr))
			}
		}
	}
	return n, nil
}

// connectRouters wires one unidirectional link from an output port of
// src to an input port of dst, crossing clock domains when needed.
func (n *Network) connectRouters(src *Router, outp Port, dst *Router, inp Port, name string) {
	if src.clk == dst.clk {
		l := NewLink(src.clk, name)
		src.connectOut(outp, l)
		dst.connectIn(inp, l)
		return
	}
	s, r := NewCrossLink(src.clk, dst.clk, name)
	src.connectOut(outp, s)
	dst.connectIn(inp, r)
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

// MulticastStats reports the delivered/dropped multicast counters,
// summed over the network's shards.
func (n *Network) MulticastStats() MulticastStats {
	var s MulticastStats
	for i := range n.shards {
		s.Groups += n.shards[i].mcGroups
		s.Copies += n.shards[i].mcCopies
		s.Dropped += n.shards[i].mcDropped
	}
	return s
}

// clockAt resolves the clock domain owning address a.
func (n *Network) clockAt(a Addr) (*sim.Clock, error) {
	if n.group == nil {
		return n.clk, nil
	}
	d := n.domainOf(a)
	if d < 0 || d >= n.group.Domains() {
		return nil, fmt.Errorf("noc: router %s mapped to domain %d of %d", a, d, n.group.Domains())
	}
	return n.group.Clock(d), nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Clock returns the primary clock domain (the only one when the
// network is unsharded; domain 0 — by convention the default domain of
// non-NoC components — otherwise). Run/RunUntil*/Quiescent calls on it
// drive the whole group.
func (n *Network) Clock() *sim.Clock { return n.clk }

// Group returns the clock-domain group of a sharded network, nil when
// unsharded.
func (n *Network) Group() *sim.Group { return n.group }

// Router returns the router at a, or nil when out of range.
func (n *Network) Router(a Addr) *Router {
	if a.X < 0 || a.X >= n.cfg.Width || a.Y < 0 || a.Y >= n.cfg.Height {
		return nil
	}
	return n.routers[a.X][a.Y]
}

// NewEndpoint creates, wires and registers the endpoint on the Local
// port of router a, in the router's own clock domain. Each router
// supports exactly one endpoint.
func (n *Network) NewEndpoint(a Addr) (*Endpoint, error) {
	r := n.Router(a)
	if r == nil {
		return nil, fmt.Errorf("noc: no router at %s", a)
	}
	return n.newEndpoint(r.clk, a)
}

// NewEndpointFor is NewEndpoint with the endpoint placed in clk's
// domain instead of the router's — for endpoints owned by an IP-core
// component in another domain (an owner calls Send/Recv from its Eval,
// so endpoint and owner must share a domain). The Local-port links
// cross the boundary like any inter-router link.
func (n *Network) NewEndpointFor(clk *sim.Clock, a Addr) (*Endpoint, error) {
	if n.Router(a) == nil {
		return nil, fmt.Errorf("noc: no router at %s", a)
	}
	return n.newEndpoint(clk, a)
}

func (n *Network) newEndpoint(clk *sim.Clock, a Addr) (*Endpoint, error) {
	r := n.Router(a)
	if _, dup := n.endpoints[a]; dup {
		return nil, fmt.Errorf("noc: endpoint at %s already exists", a)
	}
	if n.group == nil && clk != n.clk {
		return nil, fmt.Errorf("noc: endpoint clock outside the network's domain")
	}
	if n.group != nil && clk.Group() != n.group {
		return nil, fmt.Errorf("noc: endpoint clock outside the network's domain group")
	}
	dom := clk.Domain()
	var toRouter, fromRouter *Link // endpoint-side views
	if clk == r.clk {
		toRouter = NewLink(clk, fmt.Sprintf("l%s-Lin", a))
		fromRouter = NewLink(clk, fmt.Sprintf("l%s-Lout", a))
		r.connectIn(Local, toRouter)
		r.connectOut(Local, fromRouter)
	} else {
		send, recvSide := NewCrossLink(clk, r.clk, fmt.Sprintf("l%s-Lin", a))
		r.connectIn(Local, recvSide)
		toRouter = send
		outSend, outRecv := NewCrossLink(r.clk, clk, fmt.Sprintf("l%s-Lout", a))
		r.connectOut(Local, outSend)
		fromRouter = outRecv
	}
	ep := &Endpoint{
		net:  n,
		addr: a,
		clk:  clk,
		dom:  dom,
		snd:  sender{link: toRouter},
		rcv:  receiver{link: fromRouter},
	}
	sim.Watch(fromRouter.Tx, ep)
	n.endpoints[a] = ep
	clk.Register(ep)
	ep.self = clk.Handle(ep)
	return ep, nil
}

// Endpoint returns the endpoint at a, or nil if none was created.
func (n *Network) Endpoint(a Addr) *Endpoint { return n.endpoints[a] }

// Completed returns the metadata of every packet fully delivered so
// far. On a sharded network the per-domain logs are concatenated in
// domain order — deterministic, but not the global delivery order an
// unsharded run records; consumers aggregate (sums, sorted quantiles),
// so results are unaffected.
func (n *Network) Completed() []*PacketMeta {
	if len(n.shards) == 1 {
		return n.shards[0].completed
	}
	var all []*PacketMeta
	for i := range n.shards {
		all = append(all, n.shards[i].completed...)
	}
	return all
}

// Delivered reports how many packets have been fully delivered.
func (n *Network) Delivered() uint64 {
	var t uint64
	for i := range n.shards {
		t += n.shards[i].delivered
	}
	return t
}

// ResetStats clears the completed-packet log and the delivered counter,
// so rates computed after a warmup reset start from zero (router
// counters keep accumulating; they are snapshots, not rates).
func (n *Network) ResetStats() {
	for i := range n.shards {
		n.shards[i].completed = nil
		n.shards[i].delivered = 0
	}
}

// allocMeta stamps fresh packet metadata in the sending endpoint's
// shard. Sharded IDs carry the domain index in the top bits over a
// per-domain sequence number — deterministic for a fixed partition,
// and identical to the unsharded numbering for domain 0.
func (n *Network) allocMeta(e *Endpoint, dst Addr, payload int) *PacketMeta {
	sh := &n.shards[e.dom]
	sh.nextPktID++
	id := sh.nextPktID
	if e.dom > 0 {
		id |= uint64(e.dom) << pktSeqBits
	}
	m := &PacketMeta{
		ID:           id,
		Src:          e.addr,
		Dst:          dst,
		Len:          payload + 2,
		CreatedCycle: e.clk.Cycle(),
		Hops:         HopCount(e.addr, dst),
	}
	sh.metasMu.Lock()
	sh.metas = append(sh.metas, m)
	sh.metasMu.Unlock()
	return m
}

// Meta resolves a PacketID carried by a flit to the packet's metadata.
// It returns nil for the zero PacketID and for packets already
// delivered (their table slots are released on ejection).
func (n *Network) Meta(id PacketID) *PacketMeta {
	if id == 0 {
		return nil
	}
	dom := int(id >> pktSeqBits)
	seq := uint64(id) & (1<<pktSeqBits - 1)
	if dom >= len(n.shards) {
		return nil
	}
	sh := &n.shards[dom]
	sh.metasMu.Lock()
	defer sh.metasMu.Unlock()
	if seq == 0 || seq > uint64(len(sh.metas)) {
		return nil
	}
	return sh.metas[seq-1]
}

func (n *Network) packetDelivered(e *Endpoint, m *PacketMeta) {
	m.EjectCycle = e.clk.Cycle()
	// Release the sender-shard table slot: the packet has left the
	// network, so no flit references its ID any more.
	src := &n.shards[int(m.ID>>pktSeqBits)]
	src.metasMu.Lock()
	src.metas[m.ID&(1<<pktSeqBits-1)-1] = nil
	src.metasMu.Unlock()
	// Delivery bookkeeping stays in the receiving endpoint's shard.
	sh := &n.shards[e.dom]
	sh.completed = append(sh.completed, m)
	sh.delivered++
	if m.MC != nil {
		sh.mcCopies++
	}
}
