// Package core assembles complete MultiNoC systems: the Hermes NoC, R8
// Processor IPs, remote Memory IPs, the Serial IP and a host computer,
// wired exactly as Figure 1 of the paper — and, using the NoC's natural
// scalability (§3), larger "sea of processors" variants on bigger
// meshes. It is also the "multiprocessor simulator" the paper lists as
// future work.
package core

import (
	"errors"
	"fmt"

	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/procip"
	"repro/internal/r8asm"
	"repro/internal/serial"
	"repro/internal/sim"
)

// LocalWords is the capacity of every memory in MultiNoC: 1K 16-bit
// words (4 BlockRAMs of 1024 x 4 bits).
const LocalWords = 1024

// WindowBase is where remote address windows start in a processor's
// address space (Figure 6): [1024,2048) is the first window, each
// window is 1024 words.
const WindowBase = 1024

// Config describes a MultiNoC instance.
type Config struct {
	// NoC parameterizes the mesh; zero value means noc.Defaults sized
	// from the placement below.
	NoC noc.Config
	// Serial is the Serial IP's address (the host bridge).
	Serial noc.Addr
	// Procs lists processor placements; processor i gets ID i+1.
	Procs []noc.Addr
	// Memories lists remote memory placements.
	Memories []noc.Addr
	// SerialDiv is the RS-232 divisor in clock cycles per bit.
	SerialDiv int
	// Kernel selects how the system's one clock is scheduled (see
	// sim.Kernel). Every kernel runs the system bit-identically.
	Kernel sim.Kernel
}

// Default returns the paper's Figure 1 system: a 2x2 Hermes mesh with
// the Serial IP at router 00, processor 1 at 01, processor 2 at 10 and
// the remote memory at 11.
func Default() Config {
	return Config{
		Serial:    noc.Addr{X: 0, Y: 0},
		Procs:     []noc.Addr{{X: 0, Y: 1}, {X: 1, Y: 0}},
		Memories:  []noc.Addr{{X: 1, Y: 1}},
		SerialDiv: 16,
	}
}

// Scaled returns a width x height system with the Serial IP at 00,
// then nProcs processors and nMems memories filling the mesh row-major
// — the paper's §3 scaling scenario ("more instances of the presented
// pre-designed and pre-verified IP cores").
func Scaled(width, height, nProcs, nMems int) (Config, error) {
	if nProcs+nMems+1 > width*height {
		return Config{}, fmt.Errorf("core: %d IPs exceed %dx%d mesh", nProcs+nMems+1, width, height)
	}
	cfg := Config{Serial: noc.Addr{X: 0, Y: 0}, SerialDiv: 16}
	var cells []noc.Addr
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if x == 0 && y == 0 {
				continue
			}
			cells = append(cells, noc.Addr{X: x, Y: y})
		}
	}
	cfg.Procs = cells[:nProcs]
	cfg.Memories = cells[nProcs : nProcs+nMems]
	cfg.NoC = noc.Defaults(width, height)
	return cfg, nil
}

// System is a running MultiNoC instance.
type System struct {
	cfg Config

	// Clk is the system clock: every component, the mesh's included, is
	// registered on it.
	Clk    *sim.Clock
	Net    *noc.Network
	Host   *host.Host
	Serial *serial.IP
	Procs  []*procip.IP
	Mems   []*mem.IP
}

// New builds and wires the system. The external interface matches the
// paper's four pins: reset (construction), clock (Clk), tx and rx (the
// serial lines owned by Host).
func New(cfg Config) (*System, error) {
	if cfg.SerialDiv <= 0 {
		cfg.SerialDiv = 16
	}
	ncfg := cfg.NoC
	if ncfg.Width == 0 {
		w, h := 0, 0
		for _, a := range append(append([]noc.Addr{cfg.Serial}, cfg.Procs...), cfg.Memories...) {
			if a.X+1 > w {
				w = a.X + 1
			}
			if a.Y+1 > h {
				h = a.Y + 1
			}
		}
		ncfg = noc.Defaults(w, h)
	}
	net, err := noc.New(ncfg, cfg.Kernel)
	if err != nil {
		return nil, err
	}
	clk := net.Clock()
	s := &System{cfg: cfg, Clk: clk, Net: net}

	// Serial IP and host, joined by the two RS-232 lines (tx/rx pins).
	toNoC := serial.NewLine(clk)
	fromNoC := serial.NewLine(clk)
	sip, err := serial.NewIP(net, cfg.Serial, toNoC, fromNoC)
	if err != nil {
		return nil, fmt.Errorf("core: serial IP: %w", err)
	}
	s.Serial = sip
	s.Host = host.New(clk, toNoC, fromNoC, cfg.SerialDiv)

	// Processors: ID i+1, windows to every other processor (ID order)
	// then every memory, 1K words each from address 1024 (Figure 6).
	procByID := make(map[uint16]noc.Addr)
	for i, a := range cfg.Procs {
		procByID[uint16(i+1)] = a
	}
	for i, a := range cfg.Procs {
		var targets []noc.Addr
		for j, b := range cfg.Procs {
			if j != i {
				targets = append(targets, b)
			}
		}
		targets = append(targets, cfg.Memories...)
		var windows []procip.Window
		base := uint16(WindowBase)
		for _, tgt := range targets {
			windows = append(windows, procip.Window{Lo: base, Hi: base + LocalWords, Target: tgt})
			base += LocalWords
		}
		p, err := procip.New(net, procip.Config{
			Addr:       a,
			ID:         uint16(i + 1),
			Host:       cfg.Serial,
			Windows:    windows,
			ProcByID:   procByID,
			LocalWords: LocalWords,
		})
		if err != nil {
			return nil, fmt.Errorf("core: processor %d: %w", i+1, err)
		}
		s.Procs = append(s.Procs, p)
	}
	for _, a := range cfg.Memories {
		m, err := mem.NewIP(net, a, LocalWords)
		if err != nil {
			return nil, fmt.Errorf("core: memory at %s: %w", a, err)
		}
		s.Mems = append(s.Mems, m)
	}
	return s, nil
}

// Boot performs the SW/HW synchronization step of Figure 8 (the 0x55
// byte) and must precede every host command.
func (s *System) Boot() error { return s.Host.Sync() }

// Proc returns processor number id (1-based, the paper's numbering).
func (s *System) Proc(id int) *procip.IP {
	if id < 1 || id > len(s.Procs) {
		return nil
	}
	return s.Procs[id-1]
}

// LoadProgram assembles src and downloads it into processor id's local
// memory over the serial path ("Send Generated Object Code").
func (s *System) LoadProgram(id int, src string) (*r8asm.Program, error) {
	prog, err := r8asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	p := s.Proc(id)
	if p == nil {
		return nil, fmt.Errorf("core: no processor %d", id)
	}
	if err := s.Host.LoadProgram(p.Addr(), prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// LoadProgramDirect assembles src once and writes its image straight
// into the banks of every listed processor, bypassing the serial link —
// the fast path used where serial download time is not under
// measurement.
func (s *System) LoadProgramDirect(src string, ids ...int) (*r8asm.Program, error) {
	prog, err := r8asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	img, err := prog.Flatten(LocalWords)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		p := s.Proc(id)
		if p == nil {
			return nil, fmt.Errorf("core: no processor %d", id)
		}
		if err := p.Banks().Load(img); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Activate starts processor id ("Activate Processors").
func (s *System) Activate(id int) error {
	p := s.Proc(id)
	if p == nil {
		return fmt.Errorf("core: no processor %d", id)
	}
	return s.Host.Activate(p.Addr())
}

// RunUntilHalted pumps the clock until every listed processor has
// halted, failing after maxCycles.
func (s *System) RunUntilHalted(maxCycles uint64, ids ...int) error {
	for _, id := range ids {
		if s.Proc(id) == nil {
			return fmt.Errorf("core: no processor %d", id)
		}
	}
	return s.Clk.RunUntil(func() bool {
		for _, id := range ids {
			if !s.Proc(id).Halted() {
				return false
			}
		}
		return true
	}, maxCycles)
}

// DrainIO pumps the clock until every in-flight transfer — NoC flits,
// memory-engine operations, serial frames, UART bits — has settled and
// the whole system is asleep, bounded by maxCycles. It replaces the
// "run a generous fixed cycle count and hope the printf frames made it"
// idiom: with halted (or never-activated) processors the system reaches
// quiescence the cycle the last bit lands. A processor still executing
// keeps DrainIO running even while it sleeps at a fixed point, so
// callers should RunUntilHalted first; a timeout still pumps the clock
// maxCycles, so output produced within the budget is available to read
// even on error. Like sim.Clock.RunUntilQuiescent, it checks before the
// first step.
func (s *System) DrainIO(maxCycles uint64) error {
	settled := func() bool {
		for _, p := range s.Procs {
			if p.Active() && !p.Halted() {
				return false
			}
		}
		return s.Clk.Quiescent()
	}
	if settled() {
		return nil
	}
	err := s.Clk.RunUntil(settled, maxCycles)
	if errors.Is(err, sim.ErrTimeout) {
		return fmt.Errorf("%w: not quiescent after %d cycles", sim.ErrTimeout, maxCycles)
	}
	return err
}

// ReadMemory reads n words from an IP's memory over the serial path
// (Figure 9 step 1). tgt may be a processor or a remote memory.
func (s *System) ReadMemory(tgt noc.Addr, addr uint16, n int) ([]uint16, error) {
	return s.Host.ReadMemory(tgt, addr, n)
}

// Output returns everything processor id has printed so far.
func (s *System) Output(id int) string {
	p := s.Proc(id)
	if p == nil {
		return ""
	}
	return string(s.Host.Printf(p.Addr()))
}
