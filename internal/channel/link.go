package channel

import (
	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// discipline selects how a link turns one delay sample into a delivery
// instant.
type discipline uint8

const (
	// randomDelay delivers each message after its own independent sample,
	// so messages can overtake: the link is not FIFO.
	randomDelay discipline = iota
	// fifo delivers at the later of the sampled arrival and the previous
	// delivery, forcing send order.
	fifo
	// arq samples the number of stop-and-wait attempts of a
	// dist.Retransmission and delivers after attempts × slot.
	arq
)

// link is the one point-to-point link type behind NewRandomDelay, NewFIFO
// and NewARQ. Its in-flight messages live in a pooled slot store instead
// of one heap-allocated closure plus one kernel event per Send, and, where
// the kernel's execution order provably cannot tell the difference, one
// kernel event delivers a whole batch of same-instant messages.
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
type link struct {
	kernel  *sim.Kernel
	delay   dist.Dist // the per-message law; a dist.Retransmission under arq
	r       *rng.Source
	deliver DeliverFunc
	stats   Stats

	lastDelivery simtime.Time // fifo: the latest delivery instant handed out

	// Slot store. A slot's next chains a batch's entries in send order;
	// -1 terminates. free lists vacated slots for reuse, so steady-state
	// sends allocate nothing.
	slots []slot
	free  []int32

	fire sim.ArgHandler // bound once to fireBatch; reused by every event

	openAt  simtime.Time
	openSeq uint64 // kernel ScheduleSeq right after the batch event: unchanged ⇔ joinable
	tail    int32  // last entry of the open batch
	open    bool   // an open batch exists that a Send may still join
	kind    discipline
}

var _ Link = (*link)(nil)

// slot is one in-flight message: its payload, its delay (for the link's
// delay statistics) and the next entry of its batch.
type slot struct {
	payload any
	delay   simtime.Duration
	next    int32
}

// newLink wires a link of the given discipline to its kernel. All
// arguments must be non-nil.
func newLink(k *sim.Kernel, kind discipline, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *link {
	mustLinkArgs(k, delay, r, deliver)
	l := &link{kernel: k, kind: kind, delay: delay, r: r, deliver: deliver}
	l.fire = l.fireBatch
	return l
}

// Send implements Link. It returns the message's delay: the sample on a
// random-delay or ARQ link, the effective (head-of-line blocked) delay on
// a FIFO link.
func (l *link) Send(payload any) simtime.Duration {
	var d simtime.Duration
	transmissions := uint64(1)
	if l.kind == arq {
		// The individual attempts are simulated so the physical
		// transmission count is observable (experiment E1).
		model := l.delay.(dist.Retransmission)
		attempts := model.Attempts(l.r)
		transmissions = uint64(attempts)
		d = simtime.Duration(float64(attempts) * model.SlotTime)
	} else {
		d = simtime.Duration(l.delay.Sample(l.r))
	}
	now := l.kernel.Now()
	at := now.Add(d)
	if l.kind == fifo {
		if at.Before(l.lastDelivery) {
			at = l.lastDelivery
		}
		l.lastDelivery = at
		d = at.Sub(now)
	}
	l.stats.Sent++
	l.stats.Transmissions += transmissions
	l.file(at, payload, d)
	return d
}

// file stores one payload for delivery at instant at, joining the open
// batch when that is provably order-preserving and scheduling a fresh
// kernel event otherwise.
func (l *link) file(at simtime.Time, payload any, d simtime.Duration) {
	var i int32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		i = int32(len(l.slots))
		l.slots = append(l.slots, slot{})
	}
	l.slots[i] = slot{payload: payload, delay: d, next: -1}
	if l.open && at == l.openAt && l.kernel.ScheduleSeq() == l.openSeq {
		l.slots[l.tail].next = i
		l.tail = i
		return
	}
	l.kernel.AtArg(at, l.fire, uint64(i))
	l.open = true
	l.openAt = at
	l.openSeq = l.kernel.ScheduleSeq()
	l.tail = i
}

// fireBatch delivers a batch chain head-to-tail. Slots are released before
// each delivery callback so reentrant sends can reuse them; the chain link
// is read out first, so reuse cannot corrupt the walk.
func (l *link) fireBatch(head uint64) {
	l.open = false // reentrant same-instant sends must open a fresh event
	i := int32(head)
	for i >= 0 {
		s := &l.slots[i]
		nx, payload, d := s.next, s.payload, s.delay
		s.payload = nil
		l.free = append(l.free, i)
		if l.kernel.Stopped() {
			// Mirror the unbatched kernel: a Stop between two same-instant
			// deliveries abandons the rest. Release their slots undelivered.
			for i = nx; i >= 0; i = l.slots[i].next {
				l.slots[i].payload = nil
				l.free = append(l.free, i)
			}
			return
		}
		l.stats.Delivered++
		l.stats.TotalDelay += d.Seconds()
		l.deliver(payload)
		i = nx
	}
}

// Stats implements Link.
func (l *link) Stats() Stats { return l.stats }

// MeanDelay implements Link: the exact mean of the delay law (slot/p on an
// ARQ link). On a FIFO link the effective delay stochastically dominates
// it (head-of-line blocking), so there it is a lower bound on the expected
// effective delay; for the ABE bound use a distribution whose mean already
// accounts for queueing, or use random-delay links as the paper's model
// does.
func (l *link) MeanDelay() float64 { return l.delay.Mean() }
