package main

import "time"

// The reference is a fixed, self-contained toy simulation, shaped like
// the simulator's kernel (a timer heap, an active list, interface calls
// on small components and a map) but sharing no code with the
// repository. Its CPU time is timed beside the jobs of a run. The machine's speed drifts by 15–30% over minutes (neighbours on
// the shared cores), and the reference drifts with it, so dividing a
// job's CPU time by the reference's cancels most of the drift while a
// change to the program still moves the ratio in full.
const (
	refSteps = 4500
	// refNominal is the reference's CPU time on a quiet 2-vCPU Intel
	// Xeon virtual machine (go1.24). It only scales the normalised
	// figures into seconds on that machine.
	refNominal = 30 * time.Millisecond
	// refComps is the toy's component count.
	refComps = 1024
)

type refTimer struct {
	at  uint64
	idx int
}

// refHeap is a binary min-heap of timers by cycle.
type refHeap []refTimer

func (h *refHeap) push(t refTimer) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *refHeap) pop() refTimer {
	q := *h
	top := q[0]
	q[0] = q[len(q)-1]
	q = q[:len(q)-1]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(q) && q[l].at < q[m].at {
			m = l
		}
		if l+1 < len(q) && q[l+1].at < q[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

type refEvaler interface {
	eval(now uint64, r *uint64) int
}

type refNode struct {
	state uint64
	buf   [4]uint16
	n     int
}

// eval advances the node and names a component to wake, or -1.
func (c *refNode) eval(now uint64, r *uint64) int {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	c.state += *r ^ now
	c.buf[c.n&3] = uint16(c.state)
	c.n++
	if c.state&7 == 0 {
		return -1
	}
	return int(*r % refComps)
}

// reference runs the toy simulation and returns the process CPU time
// it took.
func reference() time.Duration {
	start := cpuTime()
	comps := make([]refEvaler, refComps)
	for i := range comps {
		comps[i] = &refNode{state: uint64(i)}
	}
	active := make([]int, 0, refComps)
	inActive := make([]bool, refComps)
	timers := make(refHeap, 0, refComps)
	counts := map[int]int{}
	r := uint64(88172645463325252)
	for i := 0; i < 64; i++ {
		timers.push(refTimer{uint64(i), i * 13 % refComps})
	}
	for now := uint64(0); now < refSteps; now++ {
		for len(timers) > 0 && timers[0].at <= now {
			t := timers.pop()
			if !inActive[t.idx] {
				inActive[t.idx] = true
				active = append(active, t.idx)
			}
		}
		for k := 0; k < len(active); k++ {
			i := active[k]
			if w := comps[i].eval(now, &r); w >= 0 && !inActive[w] && len(active) < 96 {
				inActive[w] = true
				active = append(active, w)
			}
			counts[i&255]++
		}
		kept := active[:0]
		for _, i := range active {
			if r&3 == 0 {
				inActive[i] = false
				timers.push(refTimer{now + 1 + r%50, i})
			} else {
				kept = append(kept, i)
			}
			r = r*6364136223846793005 + 1
		}
		active = kept
	}
	return cpuTime() - start
}

// refScale is the factor that turns CPU time measured in a run into
// CPU time on the quiet reference machine: refNominal / the run's
// median reference time in seconds.
func refScale(ref float64) float64 { return ratio(refNominal.Seconds(), ref) }
