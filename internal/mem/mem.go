// Package mem implements the MultiNoC Memory IP core (§2.3): storage
// of 1024 16-bit words, built from four BlockRAM banks of 1024 x 4 bits
// accessed in parallel, plus the control logic that serves
// read/write service packets arriving from the Hermes NoC.
//
// The same engine backs both deployments the paper uses: the
// independently accessible remote memory (see IP) and the local memory
// inside each Processor IP (driven by internal/procip, which implements
// the processor-priority arbitration and the busyNoCR8/busyNoCMem
// interlock of Figure 4).
package mem

import (
	"fmt"

	"repro/internal/noc"
)

// Words is the capacity of every MultiNoC memory, the remote memories
// and each processor's local memory alike: 1K 16-bit words.
const Words = 1024

// Banks is the storage of one memory. Figure 4 builds it from four
// BlockRAMs of 1024 x 4 bits, bank k holding bits [4k+3:4k] of every
// word, so a 16-bit access reads or writes all four banks in parallel
// in one cycle; Banks keeps each word whole, which is the same storage
// seen through that access.
type Banks struct {
	words [Words]uint16

	Reads  uint64
	Writes uint64
}

// NewBanks returns zeroed storage.
func NewBanks() *Banks { return new(Banks) }

// Read returns the word at addr and counts the access. Addresses wrap
// modulo the capacity, matching address decoding that ignores high
// bits.
func (b *Banks) Read(addr uint16) uint16 {
	b.Reads++
	return b.words[addr%Words]
}

// Peek is Read without counting the access: what a model that looks
// ahead of the hardware (procip's dry run) reads.
func (b *Banks) Peek(addr uint16) uint16 { return b.words[addr%Words] }

// Write stores a 16-bit word and counts the access.
func (b *Banks) Write(addr, v uint16) {
	b.Writes++
	b.words[addr%Words] = v
}

// Load copies an image into the banks starting at address 0.
func (b *Banks) Load(img []uint16) error {
	if len(img) > Words {
		return fmt.Errorf("mem: image of %d words exceeds capacity %d", len(img), Words)
	}
	for i, v := range img {
		b.Write(uint16(i), v)
	}
	return nil
}

// Dump copies n words starting at addr.
func (b *Banks) Dump(addr uint16, n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = b.Read(addr + uint16(i))
	}
	return out
}

// engine states.
const (
	engIdle = iota
	engWriting
	engReading
	engSendReturn
)

// Store is the word storage an Engine serves: the Banks, or a view
// of them that a model looking ahead of the hardware keeps (procip's
// dry run). Read counts the access, as Banks.Read does.
type Store interface {
	Read(addr uint16) uint16
	Write(addr, v uint16)
}

// Engine is the NoC-side control logic of a Memory IP. The owning
// component delivers decoded service messages with Deliver and calls
// Tick once per cycle with the storage it serves; banksFree and
// nocFree implement the Figure 4 arbitration (the processor has
// priority over the banks, and the busyNoCR8 interlock can hold the
// shared NoC interface). An Engine holds no pointer to its storage, so
// a copy of it ticked against another Store runs ahead of the original
// without touching it, sending aside.
type Engine struct {
	send func(dst noc.Addr, m *noc.Message) error

	inbox []*noc.Message
	state int
	// current operation
	cur   *noc.Message
	idx   int
	words []uint16

	// Stats.
	WritesServed uint64
	ReadsServed  uint64
	Rejected     uint64
}

// NewEngine returns an engine that sends its read returns through send
// (typically a closure over noc.Endpoint.SendMessage).
func NewEngine(send func(dst noc.Addr, m *noc.Message) error) *Engine {
	return &Engine{send: send}
}

// Deliver queues a service message for processing. Only read and write
// services are meaningful to a memory; anything else is counted and
// dropped.
func (e *Engine) Deliver(m *noc.Message) {
	switch m.Svc {
	case noc.SvcReadMem, noc.SvcWriteMem:
		e.inbox = append(e.inbox, m)
	default:
		e.Rejected++
	}
}

// Busy reports the busyNoCMem signal: a NoC-side operation is under
// way (§2.3).
func (e *Engine) Busy() bool { return e.state != engIdle || len(e.inbox) > 0 }

// Replying reports whether a read's words are gathered, so the next
// Tick whose nocFree holds sends its read return.
func (e *Engine) Replying() bool { return e.state == engSendReturn }

// Tick advances the engine by one clock cycle against s. banksFree is
// false when the processor claimed the banks this cycle (processor
// priority); nocFree is false while the processor side holds the
// shared NoC interface (busyNoCR8).
func (e *Engine) Tick(s Store, banksFree, nocFree bool) {
	switch e.state {
	case engIdle:
		if len(e.inbox) == 0 {
			return
		}
		e.cur = e.inbox[0]
		e.inbox = e.inbox[1:]
		e.idx = 0
		if e.cur.Svc == noc.SvcWriteMem {
			e.state = engWriting
		} else {
			e.words = make([]uint16, 0, e.cur.Count)
			e.state = engReading
		}
	case engWriting:
		if !banksFree {
			return
		}
		s.Write(e.cur.Addr+uint16(e.idx), e.cur.Words[e.idx])
		e.idx++
		if e.idx == len(e.cur.Words) {
			e.WritesServed++
			e.state = engIdle
		}
	case engReading:
		if !banksFree {
			return
		}
		e.words = append(e.words, s.Read(e.cur.Addr+uint16(len(e.words))))
		if len(e.words) == e.cur.Count {
			e.state = engSendReturn
		}
	case engSendReturn:
		if !nocFree {
			return
		}
		reply := &noc.Message{
			Svc:   noc.SvcReadReturn,
			Addr:  e.cur.Addr,
			Words: e.words,
		}
		// Send failures indicate a protocol bug (oversized reply);
		// count and drop rather than wedging the memory.
		if err := e.send(e.cur.Src, reply); err != nil {
			e.Rejected++
		} else {
			e.ReadsServed++
		}
		e.words = nil
		e.state = engIdle
	}
}

// IP is the standalone remote Memory IP of Figure 1: banks + engine on
// a NoC endpoint, with no processor interface.
type IP struct {
	banks *Banks
	eng   *Engine
	ep    *noc.Endpoint
}

// NewIP creates the remote memory at the given mesh address and
// registers it with the network's clock.
func NewIP(net *noc.Network, addr noc.Addr) (*IP, error) {
	ep, err := net.NewEndpoint(addr)
	if err != nil {
		return nil, err
	}
	ip := &IP{banks: NewBanks(), ep: ep}
	ip.eng = NewEngine(func(dst noc.Addr, m *noc.Message) error {
		_, err := ep.SendMessage(dst, m)
		return err
	})
	ep.SetOwner(net.Clock().Register(ip))
	return ip, nil
}

// Banks exposes the storage for test setup and host-side verification.
func (ip *IP) Banks() *Banks { return ip.banks }

// Engine exposes the control logic's counters.
func (ip *IP) Engine() *Engine { return ip.eng }

// Eval implements sim.Component.
func (ip *IP) Eval() {
	for {
		m, ok, err := ip.ep.RecvMessage()
		if !ok {
			break
		}
		if err != nil {
			ip.eng.Rejected++
			continue
		}
		ip.eng.Deliver(m)
	}
	ip.eng.Tick(ip.banks, true, true)
}

// Commit implements sim.Component.
func (ip *IP) Commit() {}

// Idle implements sim.Idler: a remote memory sleeps whenever its engine
// has no operation in flight and no packet awaits dispatch. The
// endpoint wakes it (via SetOwner) when a service packet completes.
func (ip *IP) Idle() bool { return !ip.eng.Busy() && ip.ep.Pending() == 0 }
