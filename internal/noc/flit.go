// Package noc implements the Hermes network on chip used by MultiNoC:
// a mesh of 5-port wormhole routers with XY routing, round-robin
// arbitration, 2-flit circular input buffers and a 2-cycle-per-flit
// asynchronous handshake between neighbours, as described in §2.1 of the
// paper. The package also provides the nine packet services the NoC
// offers to its IP cores.
//
// # Link handshake
//
// Every link runs the stepped 2-cycle handshake: both sides evaluate
// each cycle the link is busy, the sender drives tx and data, the
// receiver raises ack for one cycle when it accepts, and the sender
// observes the ack two cycles after driving.
//
// # Sleeping mid-wormhole
//
// A router or endpoint sleeps whenever its next Eval would stage
// nothing, open wormholes, buffered flits and all: a flit presented
// and waiting for its ack, a full buffer facing a presented flit, or a
// header inside its routing delay all stage nothing until the stall
// ends. A header waiting for the control does not keep a router awake
// either: the arbiter scan runs on the clock edge, in Commit, over the
// state just latched, so the routing delay starts and its timer is
// armed on the cycle the next Eval would have started them. Three
// events end a stall, and each wakes the component on the cycle a
// dense run would act on it: a tx change on an input link, an ack
// change on an output link (both watched wires) and the routing-delay
// timer. An endpoint is also woken by Send. Everything else that ends
// a stall, such as a pop that frees buffer space, happens in the
// component's own Eval while it is awake. A router's Commit computes
// its Idle answer from the state it has just latched and the link
// wires' Peek, which is what the coming latch publishes because link
// wires are Set only during Eval. So every wake
// comes from an awake component or an armed timer, and a mesh asleep
// with flits inside and no timer armed can never move again; a dense
// run would be stuck in the same state. That is a deadlock, which the
// deadlock-free routing algorithms exclude, so quiescence still means
// the mesh has drained.
//
// # Flit metadata
//
// A Flit carries only its data word and a PacketID. All per-packet
// simulation metadata (source, destination, injection and ejection
// cycles) lives in a metadata table owned by the Network — Network.Meta
// resolves a PacketID to its *PacketMeta, and the table entry is
// released when the packet is delivered. Flits are therefore plain
// values on wires and in buffers, and the steady-state flit path
// performs no heap allocation: TestFlitPathAllocs requires exactly 0
// allocations over a window of a streaming wormhole in which no packet
// is delivered or enqueued. (Delivery itself allocates, to copy the
// payload out of the reassembly buffer.)
//
// # Multicast
//
// Endpoint.SendMulti delivers one payload to a destination group. The
// default mechanism is path-based (cf. Tiwari's path multicast for
// Hermes): the group is ordered along a canonical column-snake walk of
// the mesh, one wormhole travels to the first member, and each member's
// endpoint absorbs the packet and re-injects it toward the next — so a
// k-member group costs k unicast legs laid end to end rather than k
// independent source-rooted wormholes. SetPathMulticast(false) switches
// to unicast replication, which serves as the differential oracle: both
// mechanisms deliver payload-identical copies to the same members
// (TestMulticastPathMatchesUnicastOracle), and each is itself
// bit-identical across every kernel mode. MulticastStats counts groups,
// delivered copies, and destinations dropped for lacking an endpoint.
package noc

import "fmt"

// Addr identifies a router (and the IP core on its Local port) by mesh
// coordinates. X grows eastward, Y grows northward. The paper's router
// names "00", "01", "10", "11" are Addr{X,Y} in that order.
type Addr struct {
	X, Y int
}

// String formats the address the way the paper writes it, e.g. "10" for
// X=1,Y=0.
func (a Addr) String() string { return fmt.Sprintf("%d%d", a.X, a.Y) }

// Encode packs the address into a header flit: X in the high nibble, Y
// in the low nibble. Meshes up to 16x16 are addressable, which covers
// the paper's "10x10 NoCs" scalability discussion.
func (a Addr) Encode() uint16 { return uint16(a.X&0xF)<<4 | uint16(a.Y&0xF) }

// DecodeAddr is the inverse of Addr.Encode.
func DecodeAddr(v uint16) Addr { return Addr{X: int(v>>4) & 0xF, Y: int(v) & 0xF} }

// PacketID names a packet in the network-owned metadata table (see
// Network.Meta). It is the PacketMeta.ID value: the network numbers its
// packets from 1 in the order they are sent. Zero means "no packet" —
// the value carried by idle wires and zero Flits.
type PacketID uint64

// Flit is one flow-control unit travelling over a link. Data carries at
// most Config.FlitBits significant bits. Pkt indexes the simulation
// metadata of the packet the flit belongs to in the network's table; it
// models no hardware and exists for statistics and assertions only.
// Keeping it an integer (rather than a *PacketMeta) makes Flit
// pointer-free, so the hot fifo/wire copies carry no GC write barriers.
type Flit struct {
	Data uint16
	Pkt  PacketID
}

// PacketMeta records the life cycle of one packet for statistics. All
// cycle stamps are in cycles of the network's clock.
type PacketMeta struct {
	ID  uint64
	Src Addr
	Dst Addr
	// Len is the total number of flits: header + size + payload.
	Len int
	// CreatedCycle is when the sender committed the packet to its
	// injection queue. For a multicast leg it is the cycle SendMulti
	// created the whole group, so TotalLatency measures group creation
	// to that destination's delivery.
	CreatedCycle uint64
	// InjectCycle is when the local router accepted the header flit.
	InjectCycle uint64
	// EjectCycle is when the destination endpoint accepted the last
	// flit.
	EjectCycle uint64
	// Hops is the number of routers traversed (source and target
	// included), filled in by the network from the mesh geometry. For a
	// path-multicast leg it counts from the previous path stop, not the
	// original source.
	Hops int
	// MC links a multicast leg to its group record, nil for unicast
	// packets; MCIndex is the leg's destination index in MC.Dsts.
	MC      *MulticastMeta
	MCIndex int
}

// MulticastMeta records one multicast group: a single SendMulti call
// delivering one payload to a set of destinations. Delivery happens in
// one of two modes, frozen per group at send time (see
// Network.SetPathMulticast): path-based — the packet visits the
// destinations along a canonical Hamiltonian-style path, each
// intermediate endpoint absorbing a copy and re-injecting the payload
// towards the next stop (cf. Tiwari et al.'s path-based multicast) —
// or unicast replication, the reference oracle, where the source stages
// one independent unicast copy per destination. Either way each
// destination has its own leg PacketMeta, so per-destination latency
// and delivery cycles read off the ordinary packet machinery.
type MulticastMeta struct {
	// ID is the group identity: the first leg's packet ID.
	ID  uint64
	Src Addr
	// Dsts is the deliverable destination set in path (visit) order.
	Dsts []Addr
	// Legs holds one PacketMeta per destination, index-aligned with
	// Dsts. In path mode leg i+1's flits only exist once leg i was
	// delivered; the metadata is pre-allocated at SendMulti so callers
	// can watch every destination from the start.
	Legs []*PacketMeta
	// CreatedCycle is when SendMulti staged the group.
	CreatedCycle uint64
	// Path records the delivery mode the group was sent under.
	Path bool
	// Dropped counts requested destinations that were skipped at send
	// time because no endpoint exists there.
	Dropped int
}

// DeliveredAll reports whether every deliverable destination has
// received its copy.
func (g *MulticastMeta) DeliveredAll() bool {
	for _, m := range g.Legs {
		if m.EjectCycle == 0 {
			return false
		}
	}
	return true
}

// NetworkLatency is the cycles from header injection to tail delivery.
func (m *PacketMeta) NetworkLatency() uint64 { return m.EjectCycle - m.InjectCycle }

// TotalLatency additionally includes source queueing before injection.
func (m *PacketMeta) TotalLatency() uint64 { return m.EjectCycle - m.CreatedCycle }

// Packet is the unit IP cores exchange: a destination plus payload flit
// values (each masked to the flit width). The header and size flits of
// the wire format are added by the endpoint on injection and stripped on
// delivery.
type Packet struct {
	Src     Addr
	Dst     Addr
	Payload []uint16
	Meta    *PacketMeta
}

// MaxPayload returns the largest payload (in flits) a single packet may
// carry for a given flit width: the size flit must be able to count it.
func MaxPayload(flitBits int) int {
	if flitBits >= 16 {
		return 1<<16 - 1
	}
	return 1<<flitBits - 1
}

func flitMask(bits int) uint16 {
	if bits >= 16 {
		return 0xFFFF
	}
	return uint16(1)<<bits - 1
}
