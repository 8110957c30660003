package channel

import (
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// deliveryPool is the pooled in-flight message store shared by
// the link implementations. It replaces the old per-message pattern — one
// heap-allocated closure plus one kernel event per Send — with a pooled
// slot slice (a slot holds the payload and its sampled delay) and, where the
// kernel's execution order provably cannot tell the difference, one kernel
// event for a whole batch of same-instant deliveries.
//
// # Batching without changing the execution order
//
// A Send may join the currently open batch only if (a) its delivery instant
// equals the batch's and (b) nothing at all has been scheduled on the
// kernel since the batch's event (checked via Kernel.ScheduleSeq). Under
// (a)+(b) the merged deliveries would have held consecutive (at, seq)
// positions, so executing them back-to-back inside one event is exactly
// the order the unbatched kernel would have produced — runs stay
// byte-identical, only Kernel.Executed() and the per-event observer
// cadence see fewer events. The batch also closes the moment it starts
// firing: a delivery handler that sends again at the same instant gets a
// fresh kernel event, which is precisely where the unbatched ordering
// would have put it (after everything already in flight). And because the
// old code's one-event-per-delivery let Kernel.Stop cut off the remaining
// same-instant deliveries, the batch walk re-checks Stopped before each
// entry and abandons the rest — identical semantics, closure for closure.
type deliveryPool struct {
	kernel *sim.Kernel
	sink   sink // the owning link, receiving each message at its instant

	// Slot store. A slot's next chains a batch's entries in send order;
	// -1 terminates. free lists vacated slots for reuse, so steady-state
	// sends allocate nothing.
	slots []slot
	free  []int32

	fire sim.ArgHandler // bound once to fireBatch; reused by every event

	open    bool // an open batch exists that a Send may still join
	openAt  simtime.Time
	openSeq uint64 // kernel ScheduleSeq right after the batch event: unchanged ⇔ joinable
	tail    int32  // last entry of the open batch
}

// slot is one in-flight message: its payload, its sampled delay (for the
// link's delay statistics) and the next entry of its batch.
type slot struct {
	payload any
	delay   simtime.Duration
	next    int32
}

// sink is the per-message delivery end of a link. The pool holds its link
// as a sink interface value rather than a method value, which would cost
// one allocation per link.
type sink interface {
	deliverOne(payload any, d simtime.Duration)
}

// init wires the pool to its kernel and owning link. Called once from each
// link constructor.
func (p *deliveryPool) init(k *sim.Kernel, s sink) {
	p.kernel = k
	p.sink = s
	p.fire = p.fireBatch
}

// send files one payload for delivery at instant at, joining the open
// batch when that is provably order-preserving and scheduling a fresh
// kernel event otherwise.
func (p *deliveryPool) send(at simtime.Time, payload any, d simtime.Duration) {
	var i int32
	if n := len(p.free); n > 0 {
		i = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		i = int32(len(p.slots))
		p.slots = append(p.slots, slot{})
	}
	p.slots[i] = slot{payload: payload, delay: d, next: -1}
	if p.open && at == p.openAt && p.kernel.ScheduleSeq() == p.openSeq {
		p.slots[p.tail].next = i
		p.tail = i
		return
	}
	p.kernel.AtArg(at, p.fire, uint64(i))
	p.open = true
	p.openAt = at
	p.openSeq = p.kernel.ScheduleSeq()
	p.tail = i
}

// fireBatch delivers a batch chain head-to-tail. Slots are released before
// each delivery callback so reentrant sends can reuse them; the chain link
// is read out first, so reuse cannot corrupt the walk.
func (p *deliveryPool) fireBatch(head uint64) {
	p.open = false // reentrant same-instant sends must open a fresh event
	i := int32(head)
	for i >= 0 {
		s := &p.slots[i]
		nx, payload, d := s.next, s.payload, s.delay
		s.payload = nil
		p.free = append(p.free, i)
		if p.kernel.Stopped() {
			// Mirror the unbatched kernel: a Stop between two same-instant
			// deliveries abandons the rest. Release their slots undelivered.
			for i = nx; i >= 0; i = p.slots[i].next {
				p.slots[i].payload = nil
				p.free = append(p.free, i)
			}
			return
		}
		p.sink.deliverOne(payload, d)
		i = nx
	}
}

// inFlight returns the number of occupied slots (diagnostics and tests).
func (p *deliveryPool) inFlight() int { return len(p.slots) - len(p.free) }
