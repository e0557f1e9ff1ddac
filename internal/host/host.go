// Package host models the host computer of the MultiNoC flow (§4): the
// "Serial software" that synchronizes baud, downloads object code,
// fills memories, activates processors, and runs the per-processor
// interaction monitors for printf/scanf (Figure 9).
//
// The host talks RS-232 at the bit level through internal/serial; every
// public helper is therefore exercising the same path the paper's flow
// diagram (Figure 8) describes, including the 0x55 synchronization.
package host

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/r8asm"
	"repro/internal/serial"
	"repro/internal/sim"
)

// PrintfEvent is one word/text burst a processor sent to its monitor.
type PrintfEvent struct {
	Src   noc.Addr
	Bytes []byte
}

// Host is the host-computer model. Create it with New, then use the
// blocking helpers (which pump the simulation clock) to drive the
// Figure 8 flow.
type Host struct {
	clk  *sim.Clock
	self sim.Handle
	utx  *serial.TX
	urx  *serial.RX

	parser parserState

	// ScanfData, when set, answers scanf requests automatically; the
	// paper's GUI pops an input box instead.
	ScanfData func(src noc.Addr) uint16

	printfs      []PrintfEvent
	printfBySrc  map[uint16][]byte
	scanfPending []noc.Addr
	readWords    []uint16
	readsSeen    int

	synced bool

	// Stats.
	FramesSent uint64
	FramesRecv uint64
}

// parserState wraps the upstream frame parser without exporting
// internal/serial's unexported type.
type parserState struct {
	feed func(b byte) (*noc.Message, bool)
}

// New wires a host to the two serial lines at the given divisor (clock
// cycles per bit). toNoC is the line into the MultiNoC "tx" pin;
// fromNoC is the "rx" pin's line. The host registers itself with clk.
func New(clk *sim.Clock, toNoC, fromNoC *serial.Line, div int) *Host {
	h := &Host{
		clk:         clk,
		printfBySrc: make(map[uint16][]byte),
	}
	h.self = clk.Register(h)
	// The UARTs pace the host with burst-end and byte timers, so it
	// sleeps through the cycles in between (and the time-warp kernel
	// skips them).
	h.utx = serial.NewTX(toNoC, div, h.self)
	h.urx = serial.NewRX(fromNoC, div, h.self)
	up := serial.NewUpParser()
	h.parser.feed = up.Feed
	h.urx.Recv = func(b byte) {
		if m, ok := h.parser.feed(b); ok {
			h.FramesRecv++
			h.handle(m)
		}
	}
	// A burst from the Serial IP must wake the host out of idle sleep
	// so the monitor receives frames sent while it has nothing to
	// transmit; the receiver relies on this wake to read the line.
	sim.Watch(fromNoC, h.self, 0)
	return h
}

func (h *Host) handle(m *noc.Message) {
	switch m.Svc {
	case noc.SvcPrintf:
		h.printfs = append(h.printfs, PrintfEvent{Src: m.Src, Bytes: m.Bytes})
		h.printfBySrc[m.Src.Encode()] = append(h.printfBySrc[m.Src.Encode()], m.Bytes...)
	case noc.SvcScanf:
		if h.ScanfData != nil {
			h.sendFrame(m.Src, &noc.Message{Svc: noc.SvcScanfReturn,
				Words: []uint16{h.ScanfData(m.Src)}})
		} else {
			h.scanfPending = append(h.scanfPending, m.Src)
		}
	case noc.SvcReadReturn:
		h.readWords = append(h.readWords, m.Words...)
		h.readsSeen++
	}
}

func (h *Host) sendFrame(tgt noc.Addr, m *noc.Message) {
	bs, err := serial.EncodeDown(tgt, m)
	if err != nil {
		// Host-side encode errors are programming errors of the caller;
		// they are caught in the public helpers before reaching here.
		panic(fmt.Sprintf("host: encode: %v", err))
	}
	h.FramesSent++
	h.utx.Queue(bs...)
	// Queueing happens outside Eval (the public helpers run between
	// steps); wake the host so the transmitter starts on the next cycle.
	h.self.Wake()
}

// Eval implements sim.Component.
func (h *Host) Eval() {
	h.urx.Tick()
	h.utx.Tick()
}

// Commit implements sim.Component.
func (h *Host) Commit() {}

// Idle implements sim.Idler: the host sleeps whenever its transmitter
// is dormant — fully drained, or mid-burst with the burst's end timer
// armed; its receiver never keeps it awake. It is woken by sendFrame/Sync
// (new bytes queued), by its UARTs' WakeAt timers, or by the watched rx
// line (the Serial IP starting a burst).
func (h *Host) Idle() bool { return h.utx.Dormant() }

// Sync transmits the 0x55 synchronization byte and waits until the
// line has been idle long enough for the Serial IP to lock its baud
// divisor (§4, "Synchronize SW/HW").
func (h *Host) Sync() error {
	h.utx.Gap = 4 * h.utx.Div()
	h.utx.Queue(serial.SyncByte)
	h.self.Wake()
	if err := h.drain(); err != nil {
		return fmt.Errorf("host: sync: %w", err)
	}
	h.utx.Gap = 0
	h.synced = true
	return nil
}

// drain pumps the clock until the transmitter queue is empty, failing
// once the cycles it took exceed a generous budget: 11 bit periods per
// queued byte plus slack. It compares cycles, not steps, because under
// time warp one step can cross a whole bit period.
func (h *Host) drain() error {
	deadline := h.clk.Cycle() + uint64((h.utx.QueueLen()+4)*11*h.utx.Div()+1000)
	for !h.utx.Idle() {
		if h.clk.Cycle() >= deadline {
			return fmt.Errorf("transmitter did not drain")
		}
		h.clk.Step()
	}
	return nil
}

const chunk = noc.MaxServiceWords

// WriteMemory stores words at addr of the target IP's memory, chunking
// into command frames as needed ("Fill Memory Contents" in Figure 8).
func (h *Host) WriteMemory(tgt noc.Addr, addr uint16, words []uint16) error {
	if !h.synced {
		return fmt.Errorf("host: WriteMemory before Sync")
	}
	for _, span := range noc.SplitWords(addr, words) {
		h.sendFrame(tgt, &noc.Message{Svc: noc.SvcWriteMem, Addr: span.Addr, Words: span.Words})
		if err := h.drain(); err != nil {
			return fmt.Errorf("host: write %#04x: %w", span.Addr, err)
		}
	}
	return nil
}

// ReadMemory fetches n words from addr of the target IP's memory
// (Figure 9, step 1).
func (h *Host) ReadMemory(tgt noc.Addr, addr uint16, n int) ([]uint16, error) {
	if !h.synced {
		return nil, fmt.Errorf("host: ReadMemory before Sync")
	}
	h.readWords = nil
	h.readsSeen = 0
	wantFrames := 0
	for left, a := n, addr; left > 0; {
		c := left
		if c > chunk {
			c = chunk
		}
		h.sendFrame(tgt, &noc.Message{Svc: noc.SvcReadMem, Addr: a, Count: c})
		a += uint16(c)
		left -= c
		wantFrames++
	}
	err := h.clk.RunUntil(func() bool { return len(h.readWords) >= n }, h.readBudget(n))
	if err != nil {
		return nil, fmt.Errorf("host: read %#04x+%d from %s: %w (got %d words)",
			addr, n, tgt, err, len(h.readWords))
	}
	out := h.readWords[:n]
	h.readWords = nil
	return out, nil
}

// readBudget bounds a read round trip: serial transfer dominates, at 10
// bits per byte and 2 bytes per word, plus slack for NoC transit.
func (h *Host) readBudget(n int) uint64 {
	return uint64(10*h.utx.Div()*(2*n+64) + 100000)
}

// Activate starts the processor at tgt ("Activate Processors").
func (h *Host) Activate(tgt noc.Addr) error {
	if !h.synced {
		return fmt.Errorf("host: Activate before Sync")
	}
	h.sendFrame(tgt, &noc.Message{Svc: noc.SvcActivate})
	return h.drain()
}

// SendScanf answers the oldest pending scanf request of src manually
// (the monitor text box of Figure 9).
func (h *Host) SendScanf(src noc.Addr, v uint16) error {
	h.sendFrame(src, &noc.Message{Svc: noc.SvcScanfReturn, Words: []uint16{v}})
	return h.drain()
}

// LoadProgram downloads assembled object code into the target's memory
// ("Send Generated Object Code").
func (h *Host) LoadProgram(tgt noc.Addr, p *r8asm.Program) error {
	for _, seg := range p.Segments {
		if err := h.WriteMemory(tgt, seg.Base, seg.Words); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil pumps the simulation until pred holds.
func (h *Host) RunUntil(pred func() bool, max uint64) error {
	return h.clk.RunUntil(pred, max)
}

// Printf returns (and keeps) everything processor src printed so far.
func (h *Host) Printf(src noc.Addr) []byte { return h.printfBySrc[src.Encode()] }

// PrintfEvents returns the raw printf burst log.
func (h *Host) PrintfEvents() []PrintfEvent { return h.printfs }

// ScanfPending lists processors waiting for input.
func (h *Host) ScanfPending() []noc.Addr { return h.scanfPending }
