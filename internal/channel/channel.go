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
// A link models delay only, as condition 1 does; even loss is a delay
// here, through retransmission (the ARQ discipline). Injected faults —
// per-message loss, duplication and reorder, outages, Byzantine roles —
// are applied by internal/network on its send path, so a link carries
// exactly the messages that survive them.
//
// One pooled link type serves three disciplines:
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
//
// LocalBroadcast is the radio medium of the local-broadcast model: one
// transmission, one delay, delivered to every neighbour at one instant.
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

// NewRandomDelay returns a non-FIFO random-delay link: per-message delays
// are independent samples of delay, so messages can overtake. All
// arguments must be non-nil.
func NewRandomDelay(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) Link {
	return newLink(k, randomDelay, delay, r, deliver)
}

// NewFIFO returns an order-preserving random-delay link: a message's
// delivery time is the maximum of its own sampled arrival and the
// previous delivery time.
func NewFIFO(k *sim.Kernel, delay dist.Dist, r *rng.Source, deliver DeliverFunc) Link {
	return newLink(k, fifo, delay, r, deliver)
}

// NewARQ returns the paper's case (iii) link: each physical transmission
// attempt takes slot time units and succeeds independently with
// probability p; the sender retransmits until success. Delay = attempts ×
// slot, so the delay is unbounded but E[delay] = slot/p exactly (k_avg =
// 1/p in the paper).
func NewARQ(k *sim.Kernel, p, slot float64, r *rng.Source, deliver DeliverFunc) Link {
	return newLink(k, arq, dist.NewRetransmission(p, slot), r, deliver) // validates p and slot
}

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
	// Validated eagerly, and boxed once so the links share one model.
	var model dist.Dist = dist.NewRetransmission(p, slot)
	return func(k *sim.Kernel, edgeRNG *rng.Source, deliver DeliverFunc) Link {
		return newLink(k, arq, model, edgeRNG, deliver)
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
