package sim

import "abenet/internal/simtime"

// eventHeap is the kernel's pending-event set: an intrusive 4-ary min-heap
// ordered by (at, seq) and stored in a single value slice — the slice
// doubles as the event pool, so steady-state scheduling allocates nothing.
// There is no container/heap and no interface boxing on the hot path.
//
// Cancellation marks the heap entry dead in place; dead entries are skipped
// on pop and compacted away wholesale once they outnumber the live ones, so
// cancel-heavy workloads (ARQ retransmit timers) cannot bloat the heap.
type eventHeap struct {
	heap []event // 4-ary min-heap by (at, seq); the slice is the event pool
	live int     // scheduled, not cancelled — Pending() in O(1)
	dead int     // cancelled entries still occupying heap slots
}

// push inserts ev, keeping its ticket index current.
func (h *eventHeap) push(ev event) {
	h.live++
	h.heap = append(h.heap, ev)
	h.siftUp(len(h.heap) - 1)
}

// peekTime returns the instant of the earliest live event, or ok=false
// when no live events remain.
func (h *eventHeap) peekTime() (simtime.Time, bool) {
	h.dropDead()
	if len(h.heap) == 0 {
		return 0, false
	}
	return h.heap[0].at, true
}

// pop removes and returns the earliest live event, or ok=false when no
// live events remain.
func (h *eventHeap) pop() (event, bool) {
	h.dropDead()
	if len(h.heap) == 0 {
		return event{}, false
	}
	ev := h.popRoot()
	h.live--
	// Popping live events shrinks the live population too, so the dead
	// fraction can cross the compaction threshold here just as it can on
	// Cancel — without this, a cancel-then-run workload would carry its
	// dead entries until virtual time reached them.
	h.maybeCompact()
	return ev, true
}

// cancel marks the live entry t references dead and releases its
// captured state.
func (h *eventHeap) cancel(t *Ticket) {
	ev := &h.heap[t.idx]
	ev.dead = true
	ev.fn = nil // release captured state promptly
	ev.afn = nil
	ev.ticket = nil
	h.live--
	h.dead++
	h.maybeCompact()
}

// dropDead discards cancelled events sitting at the heap root so the root
// is either live or the heap is empty.
func (h *eventHeap) dropDead() {
	for len(h.heap) > 0 && h.heap[0].dead {
		h.popRoot()
		h.dead--
	}
}

// popRoot removes and returns the root event, maintaining the heap
// property and ticket back-pointers. The vacated slot is zeroed so the
// handler's captures are released.
func (h *eventHeap) popRoot() event {
	ev := h.heap[0]
	n := len(h.heap) - 1
	if n > 0 {
		h.heap[0] = h.heap[n]
	}
	h.heap[n] = event{}
	h.heap = h.heap[:n]
	if n > 0 {
		h.siftDown(0) // also refreshes the moved entry's ticket index
	}
	return ev
}

// siftUp restores the heap property for the entry at index i by moving it
// towards the root, updating ticket back-pointers of displaced entries. It
// returns the entry's final index.
func (h *eventHeap) siftUp(i int) int {
	ev := h.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&ev, &h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		if t := h.heap[i].ticket; t != nil {
			t.idx = i
		}
		i = p
	}
	h.heap[i] = ev
	if ev.ticket != nil {
		ev.ticket.idx = i
	}
	return i
}

// siftDown restores the heap property for the entry at index i by moving it
// towards the leaves, updating ticket back-pointers of displaced entries.
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
		if t := h.heap[i].ticket; t != nil {
			t.idx = i
		}
		i = m
	}
	h.heap[i] = ev
	if ev.ticket != nil {
		ev.ticket.idx = i
	}
}

// maybeCompact sweeps cancelled entries out of the heap once they outnumber
// the live ones (and the heap is big enough for the sweep to pay off). The
// trigger depends only on counters, so compaction — like everything else
// here — is a deterministic function of the schedule.
func (h *eventHeap) maybeCompact() {
	if len(h.heap) >= compactMinLen && h.dead > len(h.heap)/2 {
		h.compact()
	}
}

// compact removes every dead entry in one pass and re-establishes the heap
// property and ticket back-pointers. Pop order is unaffected: (at, seq)
// is a total order, so any heap over the same live set pops identically.
func (h *eventHeap) compact() {
	liveEvents := h.heap[:0]
	for i := range h.heap {
		if !h.heap[i].dead {
			liveEvents = append(liveEvents, h.heap[i])
		}
	}
	for i := len(liveEvents); i < len(h.heap); i++ {
		h.heap[i] = event{} // release the vacated tail
	}
	h.heap = liveEvents
	h.dead = 0
	if n := len(h.heap); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			h.siftDown(i)
		}
	}
	for i := range h.heap {
		if t := h.heap[i].ticket; t != nil {
			t.idx = i
		}
	}
}
