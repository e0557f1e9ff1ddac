// Package procip implements the MultiNoC Processor IP core (§2.4): an
// R8 soft core, its local Memory IP acting as unified cache, and the
// control logic that interfaces both to the Hermes NoC.
//
// The control logic implements the paper's four load-store access
// modes: (i) the local memory; (ii) a remote memory; (iii) I/O devices
// (printf/scanf at 0xFFFF); (iv) other processors, for synchronization
// (wait at 0xFFFE, notify at 0xFFFD). Remote accesses stall the R8 via
// the waitR8 mechanism — here the Bus returning "not ready" — until the
// NoC transaction completes.
//
// A running core sleeps in two ways. Only the IP sees which bus
// accesses are local, ready and free of side effects, so both live
// here.
//
// It sleeps without a timer at a fixed point, where the next cycles
// change nothing but its counters, in a way that repeats:
//
//   - a pure poll loop: one iteration from a backward-jump target back to
//     that target that reads only local memory, stores nothing, never
//     stalls and ends in the same core state;
//   - a repeated stall: a remote read, scanf or wait whose retry changes
//     nothing.
//
// A bus write, a non-local or stalled access, a dispatched packet, a
// busy memory engine or a Banks call ends a fixed point.
//
// It sleeps on a plan through plain local execution. When the core runs
// off a fixed point, with the memory engine idle and no remote or I/O
// access under way, Eval dry-runs a copy of the core, at most planSpan
// cycles, on a bus that reads the banks uncounted and keeps its own
// stores, to the first cycle that must run in a real Eval: one that
// touches an address outside local memory (I/O, wait, notify, a remote
// window or an unmapped one), halts, or is the backward jump that
// declares a fixed point. So Halted, Waiting, Stats, printf output and
// Idle change on the same cycles as under dense stepping. A plan of
// minSleep cycles or more arms a timer for that cycle and sleeps; a
// shorter one is only remembered, so no cycle is dry-run twice. A
// dispatched packet cancels the plan, and so does a backdoor write:
// the next Eval compares the banks' Writes with their count at the
// first Banks call since the last Eval. The Eval after a Banks call plans
// nothing, so a caller that polls the banks every cycle costs no dry
// runs. A cancelled plan's timer stays armed, since the kernel cannot
// cancel one, and holds off quiescence until it fires, under every
// kernel alike.
//
// A sleeping core is brought up to date exactly when it next
// evaluates, or when CPU or Banks reads it. At a fixed point whole
// periods are added to its Cycles and Retired counters and to the
// banks' Reads, and the rest of the gap is stepped against memory that
// has not changed. A plan reached untouched, from its first cycle to
// its stop, is committed from its dry run: the core, the fixed-point
// detector, the stored words and the banks' counters take the dry run's
// values, so each planned cycle executes once. A plan observed mid-way,
// by CPU or Banks, is stepped cycle by cycle from where the core
// stands. So under time warp a core's registers and counters change
// lazily: read through CPU they are exact, but a RunUntil predicate
// over them sees them only on the cycles the clock executes, where
// Halted, Waiting and printf output stay exact. CPU is for reading: a
// commit overwrites the core. The dense kernel evaluates every
// component every cycle, so it never sees a gap, never commits and
// stays the oracle.
package procip

import (
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/r8"
	"repro/internal/sim"
)

// The memory-mapped control addresses of §2.4.
const (
	IOAddr     = 0xFFFF // ST = printf, LD = scanf
	WaitAddr   = 0xFFFE // ST n = block until notified by processor n
	NotifyAddr = 0xFFFD // ST n = wake processor n
)

// Window maps a local address range onto another IP's memory (Figure
// 6). Addresses in [Lo, Hi) are sent to Target with offset addr-Lo.
type Window struct {
	Lo, Hi uint16
	Target noc.Addr
}

// Config assembles one Processor IP.
type Config struct {
	// Addr is the mesh address of the router this IP sits on.
	Addr noc.Addr
	// ID is the processor number used by wait/notify (1-based in the
	// paper's example).
	ID uint16
	// Host is the Serial IP's address, the destination of printf/scanf.
	Host noc.Addr
	// Windows are the remote address ranges; MultiNoC's are
	// [1024,2048) -> other processor and [2048,3072) -> remote memory.
	Windows []Window
	// ProcByID routes notify/wait packets to other processors.
	ProcByID map[uint16]noc.Addr
	// LocalWords is the local memory capacity (1024 in MultiNoC).
	LocalWords int
}

// remote transaction states.
const (
	rIdle = iota
	rWaitRead
	rReadDone
	rWaitScanf
	rScanfDone
)

// Stats counts the control logic's observable events.
type Stats struct {
	RemoteReads   uint64
	RemoteWrites  uint64
	Printfs       uint64
	Scanfs        uint64
	Waits         uint64
	WaitsBlocked  uint64
	Notifies      uint64
	NotifiesRecv  uint64
	WaitRegsRecv  uint64
	UnmappedReads uint64
	PacketErrors  uint64
	Activations   uint64
}

// IP is the Processor IP component.
type IP struct {
	cfg   Config
	clk   *sim.Clock
	self  sim.Handle
	cpu   *r8.CPU
	banks *mem.Banks
	eng   *mem.Engine
	ep    *noc.Endpoint

	active bool

	// remote/IO transaction state (the waitR8 stall).
	rstate  int
	rData   uint16
	sentReg bool

	waiting         bool
	waitFor         uint16
	pendingNotifies map[uint16]int

	// per-cycle bank arbitration flag (processor priority, §2.3).
	banksUsed bool

	stats Stats

	// Fixed-point sleep (see the package comment). synced is the clock
	// cycle the core has been stepped up to.
	synced uint64
	fixed  bool
	orbit  orbit
	loop   loop

	// Plan sleep (see the package comment). The plan holds while synced
	// < stop, the first cycle that must run in a real Eval, and starts
	// at cycle start; armed reports that its timer is set. peeked marks
	// a Banks call since the last Eval, and peekWrites the banks' Writes
	// at the first such call.
	start, stop uint64
	armed       bool
	peeked      bool
	peekWrites  uint64
	dry         dryRun
}

// loop is the fixed-point detector: head is the core at the last
// backward-jump target, when the banks had served reads reads; ok holds
// while nothing has broken the loop since; pc is the address of the
// instruction in flight.
type loop struct {
	head  r8.CPU
	reads uint64
	ok    bool
	pc    uint16
}

// orbit is one period of a fixed point.
type orbit struct{ cycles, retired, reads uint64 }

const (
	// planSpan bounds how far a plan looks ahead, and so the dry run a
	// cancelled plan wastes.
	planSpan = 1 << 12
	// minSleep is the shortest plan worth a timer; a shorter one is
	// stepped awake.
	minSleep = 4
)

// dryRun is a plan's dry run and the bus it steps a copy of the core
// against. Local reads see the banks, uncounted, under the dry run's
// own stores, which shadow keeps stamped with the plan number gen; any
// other address is not ready and marks the cycle as outside. At the
// stop it holds what commit takes: the core, the detector (reads as an
// offset from the banks' Reads), the local reads and stores, and each
// address stored to, once, in addrs. stored marks a store since mark.
type dryRun struct {
	banks           *mem.Banks
	local           int
	gen             uint64
	shadow          []uint64 // gen<<16 | word, per local address
	outside, stored bool
	cpu             r8.CPU
	loop            loop
	reads, stores   uint64
	addrs           []uint16
}

// New creates the Processor IP on the network and registers it with the
// network's clock. The processor stays inactive until an "activate
// processor" packet arrives.
func New(net *noc.Network, cfg Config) (*IP, error) {
	if cfg.LocalWords <= 0 {
		cfg.LocalWords = 1024
	}
	ep, err := net.NewEndpoint(cfg.Addr)
	if err != nil {
		return nil, err
	}
	banks := mem.NewBanks(cfg.LocalWords)
	ip := &IP{
		cfg:             cfg,
		clk:             net.Clock(),
		cpu:             r8.New(),
		banks:           banks,
		ep:              ep,
		pendingNotifies: make(map[uint16]int),
	}
	ip.dry = dryRun{banks: banks, local: cfg.LocalWords}
	ip.eng = mem.NewEngine(banks, func(dst noc.Addr, m *noc.Message) error {
		_, err := ep.SendMessage(dst, m)
		return err
	})
	ip.self = ip.clk.Register(ip)
	ep.SetOwner(ip.self)
	return ip, nil
}

// CPU exposes the core for reading, brought up to the current cycle
// first. A core that sleeps later does not advance in the returned
// value until the next call, and a write through it is lost when a
// plan commits its dry run over the core.
func (ip *IP) CPU() *r8.CPU {
	ip.catchUp()
	return ip.cpu
}

// Banks exposes the local memory. The core is brought up to date, loses
// its fixed point and is woken, so a backdoor write lands on a core
// that sees it on its next cycle. A plan survives a backdoor read: the
// next Eval cancels it only if the banks' Writes changed, and plans
// nothing new itself.
func (ip *IP) Banks() *mem.Banks {
	ip.catchUp()
	ip.drop()
	if !ip.peeked { // the first call since the last Eval
		ip.peeked, ip.peekWrites = true, ip.banks.Writes
	}
	ip.self.Wake()
	return ip.banks
}

// Stats returns a snapshot of the control-logic counters.
func (ip *IP) Stats() Stats { return ip.stats }

// Active reports whether the processor has been activated.
func (ip *IP) Active() bool { return ip.active }

// Halted reports whether the core has executed HALT.
func (ip *IP) Halted() bool { return ip.cpu.Halted() }

// Waiting reports whether the core is blocked in a wait command.
func (ip *IP) Waiting() bool { return ip.waiting }

// Addr returns the IP's mesh address.
func (ip *IP) Addr() noc.Addr { return ip.cfg.Addr }

// Eval implements sim.Component: catch up a core that slept, dispatch
// incoming packets, give the R8 its cycle, then let the memory engine
// use whatever the processor left free, and plan the cycles ahead.
func (ip *IP) Eval() {
	ip.catchUp()
	peeked := ip.peeked
	if peeked {
		ip.peeked = false
		if ip.banks.Writes != ip.peekWrites {
			ip.stop = 0 // a backdoor write under the plan
		}
	}
	ip.dispatch()
	ip.banksUsed = false
	running := ip.active && !ip.cpu.Halted()
	if running {
		ip.step()
	}
	if ip.eng.Busy() {
		ip.drop() // the engine may write the banks under the core
	}
	ip.eng.Tick(!ip.banksUsed, ip.rstate == rIdle)
	ip.synced = ip.clk.Cycle() + 1
	if running && !peeked {
		ip.plan()
	}
}

// Commit implements sim.Component.
func (ip *IP) Commit() {}

// Idle implements sim.Idler: a Processor IP sleeps while not yet
// activated, after HALT, while its core sits at a fixed point, or
// through an armed plan, provided its memory engine is drained and no
// packet awaits dispatch. The endpoint wakes it (via SetOwner) when a
// packet — activate, read, write, notify, a remote read's or scanf's
// return — arrives, and a plan's timer at its stop cycle. A core that
// slept is caught up before anything else touches it, so its counters
// and the waitR8 retry timing match the dense kernel's.
func (ip *IP) Idle() bool {
	return (!ip.active || ip.cpu.Halted() || ip.fixed || ip.armed && ip.synced < ip.stop) &&
		!ip.eng.Busy() && ip.ep.Pending() == 0
}

// step gives the core one cycle and looks for a pure poll loop: a
// return to a backward-jump target in the state the core had there last
// time. (The bus handlers spot stalls that repeat; see retry.)
func (ip *IP) step() {
	retired := ip.cpu.Retired
	ip.cpu.Step(ip)
	if ip.cpu.Retired == retired || ip.cpu.Halted() {
		return
	}
	if ip.fixed {
		ip.loop.pc = ip.cpu.PC
	} else if _, fixed := ip.loop.retire(ip.cpu, ip.banks.Reads); fixed {
		ip.fixed, ip.loop.pc = true, ip.cpu.PC
		ip.orbit = orbit{
			cycles:  ip.cpu.Cycles - ip.loop.head.Cycles,
			retired: ip.cpu.Retired - ip.loop.head.Retired,
			reads:   ip.banks.Reads - ip.loop.reads,
		}
	}
}

// retire moves the detector past an instruction c has just retired,
// reads being the banks' reads so far; the next cycle fetches at c.PC.
// It reports a backward jump, and one back to head's state, a fixed
// point, which changes nothing.
func (l *loop) retire(c *r8.CPU, reads uint64) (back, fixed bool) {
	back = c.PC <= l.pc
	if back && l.ok && sameState(l.head, *c) {
		return true, true
	}
	l.pc = c.PC
	if back {
		l.head, l.reads, l.ok = *c, reads, true
	}
	return back, false
}

// sameState compares two cores on everything but their counters.
func sameState(a, b r8.CPU) bool {
	a.Cycles, a.Retired = b.Cycles, b.Retired
	return a == b
}

// drop ends the fixed point and any loop under watch.
func (ip *IP) drop() { ip.fixed, ip.loop.ok = false, false }

// retry marks a stalled access whose retry changed nothing: a fixed
// point one cycle long that retires nothing and reads no bank.
func (ip *IP) retry() { ip.fixed, ip.orbit = true, orbit{cycles: 1} }

// catchUp brings a core that slept up to the current cycle. At a fixed
// point it adds whole periods in one addition, then steps the rest of
// the gap against memory that has not changed. On a plan it commits the
// dry run if the gap runs from the plan's first cycle to its stop, and
// otherwise (CPU or Banks read the core mid-plan) steps every cycle of
// the gap, none of which is the stop cycle.
func (ip *IP) catchUp() {
	now := ip.clk.Cycle()
	if now <= ip.synced {
		return
	}
	gap := now - ip.synced
	planned, whole := ip.synced < ip.stop, ip.synced == ip.start && now == ip.stop
	ip.synced = now
	if whole {
		ip.commit()
		return
	}
	if ip.fixed {
		n := gap / ip.orbit.cycles
		ip.cpu.Cycles += n * ip.orbit.cycles
		ip.cpu.Retired += n * ip.orbit.retired
		ip.banks.Reads += n * ip.orbit.reads
		gap %= ip.orbit.cycles
	} else if !planned {
		return
	}
	for ; gap > 0; gap-- {
		ip.step()
	}
}

// commit makes the dry run the execution: it takes the dry run's core
// and detector, writes each stored word's final value into the banks
// and counts the dry run's reads and stores there. It overwrites the
// core, so a write through CPU would be lost.
func (ip *IP) commit() {
	d := &ip.dry
	*ip.cpu, ip.loop = d.cpu, d.loop
	ip.loop.reads += ip.banks.Reads
	for _, a := range d.addrs {
		ip.banks.Write(a, uint16(d.shadow[a]))
	}
	ip.banks.Reads += d.reads
	ip.banks.Writes += d.stores - uint64(len(d.addrs))
}

// plan dry-runs a copy of the core from cycle synced to the first cycle
// that must run in a real Eval, at most planSpan cycles ahead, with
// step's fixed-point detector (a store clears its head), and sleeps
// until that cycle if the plan is long enough. For catchUp to commit
// the dry run, it undoes the core's step that ended the run (the
// detector moved on none): an outside access was not ready and moved
// only Cycles, and a halt or fixed point is stepped again from mark,
// the last backward jump or store, so no store changes what it reads.
func (ip *IP) plan() {
	if ip.synced < ip.stop || ip.fixed || ip.cpu.Halted() || ip.eng.Busy() || ip.rstate != rIdle {
		return // a plan holds, or the next cycle is not plain local execution
	}
	d := &ip.dry
	d.gen++
	d.cpu, d.loop = *ip.cpu, ip.loop
	d.loop.reads -= ip.banks.Reads
	d.reads, d.stores, d.addrs, d.stored = 0, 0, d.addrs[:0], false
	mark, markReads := d.cpu, d.reads
	n := uint64(0)
	for ; n < planSpan; n++ {
		d.outside = false
		retired := d.cpu.Retired
		d.cpu.Step(d)
		if d.outside || d.cpu.Halted() {
			break
		}
		if d.cpu.Retired == retired {
			continue
		}
		back, fixed := d.loop.retire(&d.cpu, d.reads)
		if fixed {
			break // the cycle that declares the fixed point
		}
		if back || d.stored {
			mark, markReads, d.stored = d.cpu, d.reads, false
		}
	}
	switch {
	case n == planSpan:
	case d.outside:
		d.cpu.Cycles-- // the access was not ready, so only Cycles moved
	default: // a halt or a fixed point
		redo := d.cpu.Cycles - mark.Cycles - 1
		d.cpu, d.reads = mark, markReads
		for ; redo > 0; redo-- {
			d.cpu.Step(d)
		}
	}
	ip.start, ip.stop = ip.synced, ip.synced+n
	ip.armed = n >= minSleep
	if ip.armed {
		ip.self.WakeAt(ip.stop + 1) // evaluate cycle stop
	}
}

// Read implements r8.Bus for the dry run.
func (d *dryRun) Read(addr uint16) (uint16, bool) {
	if int(addr) >= d.local {
		d.outside = true
		return 0, false
	}
	d.reads++
	if d.shadow != nil {
		if e := d.shadow[addr]; e>>16 == d.gen {
			return uint16(e), true
		}
	}
	return d.banks.Peek(addr), true
}

// Write implements r8.Bus for the dry run.
func (d *dryRun) Write(addr, v uint16) bool {
	if int(addr) >= d.local {
		d.outside = true
		return false
	}
	if d.shadow == nil {
		d.shadow = make([]uint64, d.local)
	}
	if d.shadow[addr]>>16 != d.gen {
		d.addrs = append(d.addrs, addr)
	}
	d.shadow[addr] = d.gen<<16 | uint64(v)
	d.loop.ok, d.stored = false, true
	d.stores++
	return true
}

func (ip *IP) dispatch() {
	for {
		m, ok, err := ip.ep.RecvMessage()
		if !ok {
			return
		}
		ip.drop()
		ip.stop = 0 // cancel the plan
		if err != nil {
			ip.stats.PacketErrors++
			continue
		}
		switch m.Svc {
		case noc.SvcReadMem, noc.SvcWriteMem:
			ip.eng.Deliver(m)
		case noc.SvcActivate:
			ip.stats.Activations++
			if !ip.active || ip.cpu.Halted() {
				ip.cpu.Reset()
				ip.active = true
			}
		case noc.SvcReadReturn:
			if ip.rstate == rWaitRead && len(m.Words) > 0 {
				ip.rData = m.Words[0]
				ip.rstate = rReadDone
			} else {
				ip.stats.PacketErrors++
			}
		case noc.SvcScanfReturn:
			if ip.rstate == rWaitScanf && len(m.Words) == 1 {
				ip.rData = m.Words[0]
				ip.rstate = rScanfDone
			} else {
				ip.stats.PacketErrors++
			}
		case noc.SvcNotify:
			ip.stats.NotifiesRecv++
			ip.pendingNotifies[m.Proc]++
		case noc.SvcWait:
			// Registration of a waiter (noc.SvcWait); wake-up
			// correctness rides on notify, so this is bookkeeping.
			ip.stats.WaitRegsRecv++
		default:
			ip.stats.PacketErrors++
		}
	}
}

// window finds the remote window containing addr.
func (ip *IP) window(addr uint16) *Window {
	for i := range ip.cfg.Windows {
		w := &ip.cfg.Windows[i]
		if addr >= w.Lo && addr < w.Hi {
			return w
		}
	}
	return nil
}

// Read implements r8.Bus. Only a local read keeps a fixed point.
func (ip *IP) Read(addr uint16) (uint16, bool) {
	if int(addr) < ip.cfg.LocalWords {
		ip.banksUsed = true
		return ip.banks.Read(addr), true
	}
	ip.drop()
	switch {
	case addr == IOAddr:
		return ip.scanf()
	case addr == WaitAddr || addr == NotifyAddr:
		// Loads from the synchronization registers are meaningless;
		// define them as reading zero.
		return 0, true
	}
	if w := ip.window(addr); w != nil {
		return ip.remoteRead(w, addr)
	}
	ip.stats.UnmappedReads++
	return 0, true
}

// Write implements r8.Bus. Every write ends a fixed point.
func (ip *IP) Write(addr, v uint16) bool {
	ip.drop()
	switch {
	case int(addr) < ip.cfg.LocalWords:
		ip.banksUsed = true
		ip.banks.Write(addr, v)
		return true
	case addr == IOAddr:
		return ip.printf(v)
	case addr == WaitAddr:
		return ip.wait(v)
	case addr == NotifyAddr:
		return ip.notify(v)
	}
	if w := ip.window(addr); w != nil {
		return ip.remoteWrite(w, addr, v)
	}
	ip.stats.UnmappedReads++
	return true
}

func (ip *IP) remoteRead(w *Window, addr uint16) (uint16, bool) {
	switch ip.rstate {
	case rIdle:
		m := &noc.Message{Svc: noc.SvcReadMem, Addr: addr - w.Lo, Count: 1}
		if _, err := ip.ep.SendMessage(w.Target, m); err != nil {
			ip.stats.PacketErrors++
			return 0, true
		}
		ip.stats.RemoteReads++
		ip.rstate = rWaitRead
		return 0, false
	case rReadDone:
		ip.rstate = rIdle
		return ip.rData, true
	default:
		ip.retry()
		return 0, false // transaction in flight: keep stalling
	}
}

func (ip *IP) remoteWrite(w *Window, addr, v uint16) bool {
	// Posted write: ordering to the same target is preserved by the
	// endpoint queue and deterministic routing.
	m := &noc.Message{Svc: noc.SvcWriteMem, Addr: addr - w.Lo, Words: []uint16{v}}
	if _, err := ip.ep.SendMessage(w.Target, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.RemoteWrites++
	return true
}

// printf sends the word's low byte to the host monitor (a UART-style
// putchar; programs format larger values in software).
func (ip *IP) printf(v uint16) bool {
	m := &noc.Message{Svc: noc.SvcPrintf, Bytes: []byte{byte(v)}}
	if _, err := ip.ep.SendMessage(ip.cfg.Host, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.Printfs++
	return true
}

func (ip *IP) scanf() (uint16, bool) {
	switch ip.rstate {
	case rIdle:
		if _, err := ip.ep.SendMessage(ip.cfg.Host, &noc.Message{Svc: noc.SvcScanf}); err != nil {
			ip.stats.PacketErrors++
			return 0, true
		}
		ip.stats.Scanfs++
		ip.rstate = rWaitScanf
		return 0, false
	case rScanfDone:
		ip.rstate = rIdle
		return ip.rData, true
	default:
		ip.retry()
		return 0, false
	}
}

// wait blocks the ST instruction until a notify from processor n has
// been received. A notify that raced ahead of the wait is consumed
// immediately.
func (ip *IP) wait(n uint16) bool {
	if ip.pendingNotifies[n] > 0 {
		ip.pendingNotifies[n]--
		if ip.waiting {
			ip.waiting = false
		}
		ip.sentReg = false
		ip.stats.Waits++
		return true
	}
	if ip.waiting && ip.sentReg {
		ip.retry()
		return false
	}
	if !ip.waiting {
		ip.waiting = true
		ip.waitFor = n
		ip.stats.WaitsBlocked++
	}
	if !ip.sentReg {
		// Register the wait with the expected notifier (packet format
		// 9 of §2.1). Unknown IDs still block — a programming error
		// surfaces as a watchdog timeout rather than silence.
		if tgt, ok := ip.cfg.ProcByID[n]; ok {
			m := &noc.Message{Svc: noc.SvcWait, Proc: ip.cfg.ID}
			if _, err := ip.ep.SendMessage(tgt, m); err != nil {
				ip.stats.PacketErrors++
			}
		}
		ip.sentReg = true
	}
	return false
}

// notify wakes processor n (carrying our ID so the waiter can match
// the paper's "notify command from the IP with address 2" semantics).
func (ip *IP) notify(n uint16) bool {
	tgt, ok := ip.cfg.ProcByID[n]
	if !ok {
		ip.stats.PacketErrors++
		return true
	}
	m := &noc.Message{Svc: noc.SvcNotify, Proc: ip.cfg.ID}
	if _, err := ip.ep.SendMessage(tgt, m); err != nil {
		ip.stats.PacketErrors++
		return true
	}
	ip.stats.Notifies++
	return true
}
