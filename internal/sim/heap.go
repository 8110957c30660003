package sim

// eventHeap is the kernel's pending-event set: an intrusive 4-ary min-heap
// ordered by (at, seq) and stored in a single value slice — the slice
// doubles as the event pool, so steady-state scheduling allocates nothing.
// There is no container/heap and no interface boxing on the hot path.
type eventHeap struct {
	heap []event // 4-ary min-heap by (at, seq); the slice is the event pool
}

// push inserts ev.
func (h *eventHeap) push(ev event) {
	h.heap = append(h.heap, ev)
	h.siftUp(len(h.heap) - 1)
}

// pop removes and returns the root event, which must exist, maintaining
// the heap property. The vacated slot is zeroed so the handler's captures
// are released.
func (h *eventHeap) pop() event {
	ev := h.heap[0]
	n := len(h.heap) - 1
	if n > 0 {
		h.heap[0] = h.heap[n]
	}
	h.heap[n] = event{}
	h.heap = h.heap[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return ev
}

// siftUp restores the heap property for the entry at index i by moving it
// towards the root.
func (h *eventHeap) siftUp(i int) {
	ev := h.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&ev, &h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		i = p
	}
	h.heap[i] = ev
}

// siftDown restores the heap property for the entry at index i by moving it
// towards the leaves.
func (h *eventHeap) siftDown(i int) {
	n := len(h.heap)
	ev := h.heap[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&h.heap[j], &h.heap[m]) {
				m = j
			}
		}
		if !less(&h.heap[m], &ev) {
			break
		}
		h.heap[i] = h.heap[m]
		i = m
	}
	h.heap[i] = ev
}
