// Package channel implements point-to-point message links with stochastic
// delays.
//
// Condition 1 of the ABE model (Bakhshi et al., PODC 2010, Definition 1)
// assumes a known bound δ on the *expected* message delay, with delays of
// different messages stochastically independent. Links here sample each
// message's delay independently from a configured distribution whose exact
// mean is known, so a network can verify its configuration against a
// declared δ.
//
// Three link families are provided:
//
//   - Random-delay links (the default): independent per-message delays, so
//     messages may overtake each other — matching the paper's "the order of
//     messages is arbitrary between any pair of nodes".
//   - FIFO links: same delays, but delivery order is forced to match send
//     order (for protocols and ablations that need it).
//   - ARQ links: an explicit model of the paper's Section 1 case (iii) — a
//     lossy physical channel with per-transmission success probability p
//     and stop-and-wait retransmission. The delay is (number of attempts) ×
//     slot time: unbounded support, expectation slot/p.
package channel

import (
	"sync"
	"weak"

	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// DeliverFunc receives a payload at its delivery instant.
type DeliverFunc func(payload any)

// Stats aggregates what happened on one link.
type Stats struct {
	Sent          uint64  // messages handed to the link
	Delivered     uint64  // messages delivered so far
	Transmissions uint64  // physical transmission attempts (= Sent except for ARQ links)
	TotalDelay    float64 // sum of per-message delays (send to delivery)
}

// MeanDelay returns the average delivered-message delay, or 0 if nothing
// was delivered yet.
func (s Stats) MeanDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.TotalDelay / float64(s.Delivered)
}

// Link is a unidirectional message channel.
type Link interface {
	// Send accepts a payload for delivery and returns the sampled delay.
	Send(payload any) simtime.Duration
	// Stats returns a snapshot of the link's counters.
	Stats() Stats
	// MeanDelay returns the exact expectation of the link's delay
	// distribution (the per-link δ).
	MeanDelay() float64
}

// RandomDelay is a link whose per-message delays are independent samples of
// a delay distribution. Because samples are independent, messages can
// overtake: the link is not FIFO.
type RandomDelay struct {
	kernel  *sim.Kernel
	delay   dist.Dist
	r       *rng.Source
	deliver DeliverFunc
	stats   Stats
	pool    deliveryPool
}

var _ Link = (*RandomDelay)(nil)

// NewRandomDelay returns a non-FIFO random-delay link. All arguments must
// be non-nil.
func NewRandomDelay(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *RandomDelay {
	mustLinkArgs(k, delay, r, deliver)
	l := &RandomDelay{kernel: k, delay: delay, r: r, deliver: deliver}
	l.pool.init(k, l)
	return l
}

// Send implements Link.
func (l *RandomDelay) Send(payload any) simtime.Duration {
	d := simtime.Duration(l.delay.Sample(l.r))
	l.stats.Sent++
	l.stats.Transmissions++
	l.pool.send(l.kernel.Now().Add(d), payload, d)
	return d
}

func (l *RandomDelay) deliverOne(payload any, d simtime.Duration) {
	l.stats.Delivered++
	l.stats.TotalDelay += d.Seconds()
	l.deliver(payload)
}

// Stats implements Link.
func (l *RandomDelay) Stats() Stats { return l.stats }

// MeanDelay implements Link.
func (l *RandomDelay) MeanDelay() float64 { return l.delay.Mean() }

// FIFO is a link with random per-message delays whose deliveries are
// nevertheless forced into send order: a message's delivery time is the
// maximum of its own sampled arrival and the previous delivery time.
type FIFO struct {
	kernel       *sim.Kernel
	delay        dist.Dist
	r            *rng.Source
	deliver      DeliverFunc
	stats        Stats
	lastDelivery simtime.Time
	pool         deliveryPool
}

var _ Link = (*FIFO)(nil)

// NewFIFO returns an order-preserving random-delay link.
func NewFIFO(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) *FIFO {
	mustLinkArgs(k, delay, r, deliver)
	l := &FIFO{kernel: k, delay: delay, r: r, deliver: deliver}
	l.pool.init(k, l)
	return l
}

// Send implements Link.
func (l *FIFO) Send(payload any) simtime.Duration {
	sent := l.kernel.Now()
	arrival := sent.Add(simtime.Duration(l.delay.Sample(l.r)))
	if arrival.Before(l.lastDelivery) {
		arrival = l.lastDelivery
	}
	l.lastDelivery = arrival
	effective := arrival.Sub(sent)
	l.stats.Sent++
	l.stats.Transmissions++
	l.pool.send(arrival, payload, effective)
	return effective
}

func (l *FIFO) deliverOne(payload any, effective simtime.Duration) {
	l.stats.Delivered++
	l.stats.TotalDelay += effective.Seconds()
	l.deliver(payload)
}

// Stats implements Link.
func (l *FIFO) Stats() Stats { return l.stats }

// MeanDelay returns the mean of the underlying distribution. Note the
// effective FIFO delay stochastically dominates it (head-of-line blocking),
// so this is a lower bound on the expected effective delay; for the ABE
// bound use a distribution whose mean already accounts for queueing, or use
// RandomDelay links as the paper's model does.
func (l *FIFO) MeanDelay() float64 { return l.delay.Mean() }

// ARQ is the paper's case (iii) link: each physical transmission attempt
// takes Slot time units and succeeds independently with probability P; the
// sender retransmits until success. Delay = attempts × slot, so the delay
// is unbounded but E[delay] = slot/p exactly (k_avg = 1/p in the paper).
type ARQ struct {
	kernel  *sim.Kernel
	model   dist.Retransmission
	r       *rng.Source
	deliver DeliverFunc
	stats   Stats
	pool    deliveryPool
}

var _ Link = (*ARQ)(nil)

// NewARQ returns a lossy stop-and-wait ARQ link with per-attempt success
// probability p and per-attempt duration slot.
func NewARQ(k *sim.Kernel, p, slot float64, r *rng.Source, deliver DeliverFunc) *ARQ {
	model := dist.NewRetransmission(p, slot) // validates p and slot
	if k == nil || r == nil || deliver == nil {
		panic("channel: ARQ link requires kernel, rng and deliver")
	}
	l := &ARQ{kernel: k, model: model, r: r, deliver: deliver}
	l.pool.init(k, l)
	return l
}

// Send implements Link. It simulates the individual transmission attempts
// so the physical transmission count is observable (experiment E1).
func (l *ARQ) Send(payload any) simtime.Duration {
	attempts := l.model.Attempts(l.r)
	d := simtime.Duration(float64(attempts) * l.model.SlotTime)
	l.stats.Sent++
	l.stats.Transmissions += uint64(attempts)
	l.pool.send(l.kernel.Now().Add(d), payload, d)
	return d
}

func (l *ARQ) deliverOne(payload any, d simtime.Duration) {
	l.stats.Delivered++
	l.stats.TotalDelay += d.Seconds()
	l.deliver(payload)
}

// Stats implements Link.
func (l *ARQ) Stats() Stats { return l.stats }

// MeanDelay implements Link: exactly slot/p.
func (l *ARQ) MeanDelay() float64 { return l.model.Mean() }

// Factory builds one link per directed edge; the network layer calls it
// while wiring a topology. Implementations must use only the provided
// per-edge random stream for randomness.
type Factory func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link

// RandomDelayFactory returns a Factory producing non-FIFO links with the
// given delay distribution (shared shape, independent samples per link).
func RandomDelayFactory(delay dist.Dist) Factory {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	return func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link {
		return NewRandomDelay(k, delay, edgeRNG, deliver)
	}
}

// FIFOFactory returns a Factory producing FIFO links.
func FIFOFactory(delay dist.Dist) Factory {
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	return func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link {
		return NewFIFO(k, delay, edgeRNG, deliver)
	}
}

// ARQFactory returns a Factory producing lossy ARQ links with success
// probability p and slot duration slot.
func ARQFactory(p, slot float64) Factory {
	dist.NewRetransmission(p, slot) // validate eagerly
	return func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link {
		return NewARQ(k, p, slot, edgeRNG, deliver)
	}
}

// HeterogeneousFactory builds each link with pick(edgeIndex), allowing
// per-edge delay models (non-homogeneous links, as the paper's motivation
// for using a *bound* on expected delay discusses). The network-wide δ is
// then the maximum per-link mean.
//
// edgeIndex counts the links built on one kernel, 0, 1, 2, … in the order
// the network wires its edges. Each network owns one kernel, so the count
// restarts for every network built from the factory, and networks built
// concurrently (sweep workers sharing one Env) count independently.
func HeterogeneousFactory(pick func(edgeIndex int) dist.Dist) Factory {
	if pick == nil {
		panic("channel: nil pick function")
	}
	var (
		mu   sync.Mutex
		next = map[weak.Pointer[sim.Kernel]]int{}
	)
	return func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link {
		key := weak.Make(k)
		mu.Lock()
		i, ok := next[key]
		if !ok {
			// A new network: forget the ones whose kernels are gone.
			for old := range next {
				if old.Value() == nil {
					delete(next, old)
				}
			}
		}
		next[key] = i + 1
		mu.Unlock()
		return NewRandomDelay(k, pick(i), edgeRNG, deliver)
	}
}

func mustLinkArgs(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) {
	if k == nil {
		panic("channel: nil kernel")
	}
	if delay == nil {
		panic("channel: nil delay distribution")
	}
	if r == nil {
		panic("channel: nil random source")
	}
	if deliver == nil {
		panic("channel: nil deliver callback")
	}
}
