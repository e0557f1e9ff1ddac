package noc

// queue is a FIFO on a circular buffer that doubles when full, so a
// queue whose length stays bounded stops allocating.
type queue[T any] struct {
	buf  []T // its length is 0 or a power of two
	head int
	n    int
}

func (q *queue[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), 8))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// at returns the i-th oldest element; i must be below q.n.
func (q *queue[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// pop drops the oldest element.
func (q *queue[T]) pop() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// wordRing holds the payloads of a queue of packets, each in one
// contiguous span of its buffer. A position counts words from the
// ring's creation and never wraps; the word at position p sits at p
// modulo the buffer's power-of-two length, so every span keeps its
// position when the buffer doubles. put reserves a span after the
// newest and release frees the spans before a position, so spans are
// freed oldest first. Once the buffer fits the largest backlog, the
// ring allocates no more.
type wordRing struct {
	buf        []uint16
	head, tail int // the live spans lie in [head, tail)
}

// put reserves n contiguous words after the newest span and returns
// their position and the words themselves. A span that would straddle
// the buffer's end starts at its beginning instead; the words skipped
// are freed with the span after them.
func (r *wordRing) put(n int) (int, []uint16) {
	if n == 0 {
		return r.tail, nil
	}
	for {
		if size := len(r.buf); size > 0 {
			start := r.tail
			if i := start & (size - 1); i+n > size {
				start += size - i
			}
			if start+n-r.head <= size {
				r.tail = start + n
				return start, r.span(start, n)
			}
		}
		r.grow()
	}
}

// grow doubles the buffer, copying every live word to its position in
// the new one.
func (r *wordRing) grow() {
	old := r.buf
	size := max(2*len(old), 128)
	r.buf = make([]uint16, size)
	for p := r.head; p < r.tail; {
		i := p & (len(old) - 1)
		p += copy(r.buf[p&(size-1):], old[i:min(len(old), i+r.tail-p)])
	}
}

// release frees the spans that end at or before position p.
func (r *wordRing) release(p int) { r.head = p }

// at returns the word at position p.
func (r *wordRing) at(p int) uint16 { return r.buf[p&(len(r.buf)-1)] }

// span returns the n words from position p, which put reserved.
func (r *wordRing) span(p, n int) []uint16 {
	if n == 0 {
		return nil
	}
	i := p & (len(r.buf) - 1)
	return r.buf[i : i+n : i+n]
}
