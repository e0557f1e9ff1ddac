package noc

// fifo is the circular input buffer of a router port (§2.1: "The
// inserted buffers work as circular FIFOs", 2 flits deep in MultiNoC).
//
// Mutations are staged and applied on Commit so that all router logic
// observes register semantics: a push staged this cycle is not visible
// to reads until the next cycle, matching a FIFO with registered flags.
// A router holds its five fifos inline; their slots are windows of one
// per-network slab.
type fifo struct {
	slots []Flit
	head  int
	n     int

	stPush  Flit
	hasPush bool
	stPop   bool
}

// Len reports the committed number of buffered flits.
func (f *fifo) Len() int { return f.n }

// Free reports the committed number of empty slots.
func (f *fifo) Free() int { return len(f.slots) - f.n }

// Cap reports the buffer depth.
func (f *fifo) Cap() int { return len(f.slots) }

// Head returns the oldest buffered flit. It panics when empty; callers
// guard with Len.
func (f *fifo) Head() Flit { return f.At(0) }

// At returns the i-th oldest buffered flit.
func (f *fifo) At(i int) Flit {
	if i < 0 || i >= f.n {
		panic("noc: fifo index out of range")
	}
	return f.slots[(f.head+i)%len(f.slots)]
}

// StagePush schedules fl to enter the buffer at the next clock edge. At
// most one push may be staged per cycle and only when Free() > 0.
func (f *fifo) StagePush(fl Flit) {
	if f.hasPush {
		panic("noc: double push staged on fifo")
	}
	if f.Free() == 0 {
		panic("noc: push staged on full fifo")
	}
	f.stPush, f.hasPush = fl, true
}

// StagePop schedules removal of the head flit at the next clock edge.
func (f *fifo) StagePop() {
	if f.stPop {
		panic("noc: double pop staged on fifo")
	}
	if f.n == 0 {
		panic("noc: pop staged on empty fifo")
	}
	f.stPop = true
}

// Commit applies the staged operations.
func (f *fifo) Commit() {
	if !f.stPop && !f.hasPush {
		return
	}
	if f.stPop {
		f.head = (f.head + 1) % len(f.slots)
		f.n--
		f.stPop = false
	}
	if f.hasPush {
		f.slots[(f.head+f.n)%len(f.slots)] = f.stPush
		f.n++
		f.hasPush = false
	}
}
