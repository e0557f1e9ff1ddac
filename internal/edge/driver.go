package edge

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/r8asm"
)

// Transport selects how image lines move between host and processors.
type Transport int

// Transports. Serial is the paper's RS-232 path (Figure 10's GUI);
// Direct is a zero-cost memory backdoor that isolates the embedded
// compute time from the serial bottleneck.
const (
	Direct Transport = iota
	Serial
)

// Driver distributes lines of an image across MultiNoC processors and
// collects the processed lines, implementing the host side of the
// Figure 10 application.
type Driver struct {
	Sys   *core.System
	T     Transport
	Width int

	kernelLoaded map[int]bool
}

// NewDriver creates a driver for images of the given width.
func NewDriver(sys *core.System, t Transport, width int) *Driver {
	return &Driver{Sys: sys, T: t, Width: width, kernelLoaded: make(map[int]bool)}
}

// LoadKernels assembles the Sobel kernel once, then downloads it to
// each given processor and starts it before moving to the next.
func (d *Driver) LoadKernels(procs ...int) error {
	prog, err := r8asm.Assemble(ProgramSource(d.Width))
	if err != nil {
		return fmt.Errorf("edge: kernel: %w", err)
	}
	var img []uint16
	if d.T == Direct {
		if img, err = prog.Flatten(core.LocalWords); err != nil {
			return fmt.Errorf("edge: kernel: %w", err)
		}
	}
	for _, id := range procs {
		p := d.Sys.Proc(id)
		if p == nil {
			return fmt.Errorf("edge: no processor %d", id)
		}
		if d.T == Serial {
			err = d.Sys.Host.LoadProgram(p.Addr(), prog)
		} else {
			err = p.Banks().Load(img)
		}
		if err != nil {
			return fmt.Errorf("edge: kernel for processor %d: %w", id, err)
		}
		if err := d.Sys.Activate(id); err != nil {
			return err
		}
		d.kernelLoaded[id] = true
	}
	// Give the activate packets time to land.
	d.Sys.Clk.Run(2000)
	return nil
}

// StopKernels halts the kernels via the exit flag.
func (d *Driver) StopKernels(procs ...int) error {
	for _, id := range procs {
		if err := d.writeWords(id, FlagAddr, []uint16{FlagExit}); err != nil {
			return err
		}
	}
	return d.Sys.RunUntilHalted(1_000_000, procs...)
}

func (d *Driver) writeWords(id int, addr uint16, words []uint16) error {
	p := d.Sys.Proc(id)
	if p == nil {
		return fmt.Errorf("edge: no processor %d", id)
	}
	if d.T == Serial {
		return d.Sys.Host.WriteMemory(p.Addr(), addr, words)
	}
	for i, w := range words {
		p.Banks().Write(addr+uint16(i), w)
	}
	return nil
}

func (d *Driver) readWords(id int, addr uint16, n int) ([]uint16, error) {
	p := d.Sys.Proc(id)
	if d.T == Serial {
		return d.Sys.Host.ReadMemory(p.Addr(), addr, n)
	}
	return p.Banks().Dump(addr, n), nil
}

func rowWords(row []uint8) []uint16 {
	out := make([]uint16, len(row))
	for i, v := range row {
		out[i] = uint16(v)
	}
	return out
}

// Process runs the whole image through the given processors,
// distributing interior lines round-robin and assembling the output.
// It returns the processed image and the simulated clock cycles spent.
func (d *Driver) Process(img Image, procs ...int) (Image, uint64, error) {
	if img.W() != d.Width {
		return nil, 0, fmt.Errorf("edge: image width %d, driver built for %d", img.W(), d.Width)
	}
	for _, id := range procs {
		if !d.kernelLoaded[id] {
			return nil, 0, fmt.Errorf("edge: kernel not loaded on processor %d", id)
		}
	}
	start := d.Sys.Clk.Cycle()
	out := NewImage(img.W(), img.H())
	in0, _, _, outAddr := Layout(d.Width)

	type task struct {
		y    int
		busy bool
	}
	state := make(map[int]*task, len(procs))
	for _, id := range procs {
		state[id] = &task{}
	}
	next := 1
	remaining := 0
	if img.H() > 2 {
		remaining = img.H() - 2
	}

	for remaining > 0 {
		progressed := false
		for _, id := range procs {
			st := state[id]
			if !st.busy && next < img.H()-1 {
				y := next
				next++
				// Three input rows then the go flag.
				var words []uint16
				words = append(words, rowWords(img[y-1])...)
				words = append(words, rowWords(img[y])...)
				words = append(words, rowWords(img[y+1])...)
				if err := d.writeWords(id, in0, words); err != nil {
					return nil, 0, err
				}
				if err := d.writeWords(id, FlagAddr, []uint16{FlagGo}); err != nil {
					return nil, 0, err
				}
				st.y, st.busy = y, true
				progressed = true
				continue
			}
			if st.busy {
				flag, err := d.readWords(id, FlagAddr, 1)
				if err != nil {
					return nil, 0, err
				}
				if flag[0] == FlagDone {
					row, err := d.readWords(id, outAddr, d.Width)
					if err != nil {
						return nil, 0, err
					}
					for x, v := range row {
						out[st.y][x] = uint8(v)
					}
					if err := d.writeWords(id, FlagAddr, []uint16{FlagIdle}); err != nil {
						return nil, 0, err
					}
					st.busy = false
					remaining--
					progressed = true
				}
			}
		}
		if !progressed {
			if d.T == Direct {
				// The memory backdoor is free, so step exactly until a
				// busy kernel posts its result instead of burning a
				// fixed poll interval. A timeout just re-enters the
				// outer loop, which has its own wedge guard.
				_ = d.Sys.Clk.RunUntil(func() bool {
					for _, id := range procs {
						if state[id].busy && d.Sys.Proc(id).Banks().Read(FlagAddr) == FlagDone {
							return true
						}
					}
					return false
				}, 1_000_000)
			} else {
				// Over the serial path each flag poll costs a full
				// frame round trip; let the kernels compute in bulk.
				d.Sys.Clk.Run(200)
			}
		}
		if d.Sys.Clk.Cycle()-start > 500_000_000 {
			return nil, 0, fmt.Errorf("edge: processing wedged")
		}
	}
	return out, d.Sys.Clk.Cycle() - start, nil
}
