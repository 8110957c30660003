// Package byzantine describes adversarial node behaviour for simulated
// network runs.
//
// internal/faults models an honest-but-unlucky world: messages are lost,
// nodes crash, links partition. This package models *malice*: a Plan
// assigns per-node Byzantine roles — equivocation (telling different
// neighbours different things), silent omission, payload corruption and
// delay-stalling — and the network layer intercepts every send of a role
// holder on its send path. The adversary acts on the logical send, before
// the per-edge outage check and link faults, so it can coordinate what a
// node tells each of its neighbours.
//
// Everything is sampled from the run's splittable RNG: a run remains a pure
// function of (environment, plan, seed), and a nil *Plan disables the
// subsystem entirely — the run is byte-identical to an adversary-free build.
//
// The roles are chosen to probe the two papers behind ROADMAP item 3:
// Danezis et al. ("Byzantine Consensus in the Random Asynchronous Model")
// on how probabilistic delivery changes tolerance bounds, and Khan & Vaidya
// ("Asynchronous Byzantine Consensus under the Local Broadcast Model"),
// whose local-broadcast medium makes equivocation physically impossible —
// under a local-broadcast network an Equivocate role degrades to consistent
// corruption, which is exactly the mechanism lifting the f < n/3 barrier.
package byzantine

import (
	"fmt"
	"math"

	"abenet/internal/dist"
	"abenet/internal/rng"
)

// Behavior selects what a Byzantine node does to its outgoing messages.
type Behavior int

// The adversarial behaviours.
const (
	// Equivocate substitutes an independently corrupted payload per
	// receiver: two neighbours of the same broadcast see different values.
	// On a local-broadcast network the medium makes per-receiver divergence
	// impossible, so the substitution happens once per transmission and is
	// delivered identically to all neighbours (counted as a corruption, not
	// an equivocation — the medium defeated the attack).
	Equivocate Behavior = iota + 1
	// Mute silently drops the node's outgoing messages: the protocol
	// instance believes it sent, nothing ever reaches the wire.
	Mute
	// Corrupt substitutes a corrupted payload, the same value to every
	// receiver of one logical send.
	Corrupt
	// Stall holds every outgoing message back by a random extra delay
	// before it reaches the link — an adversary exploiting asynchrony
	// without breaking it.
	Stall
)

// String implements fmt.Stringer; the names are the spec-codec vocabulary.
func (b Behavior) String() string {
	switch b {
	case Equivocate:
		return "equivocate"
	case Mute:
		return "mute"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// Role assigns one behaviour to one node. Build roles directly or through
// the Equivocators helper; the zero value is invalid (no behaviour).
type Role struct {
	// Node is the role holder.
	Node int
	// Behavior selects the attack.
	Behavior Behavior
	// Prob is the per-message activation probability; messages that miss
	// the draw pass through honestly. 0 selects the balanced default 1
	// (always active).
	Prob float64
	// StallDelay is the hold-back distribution for Stall roles; nil means
	// Exponential(1). Setting it on any other behaviour is rejected by
	// Validate.
	StallDelay dist.Dist
}

// Plan assigns Byzantine roles for one run. The zero value assigns no roles
// (useful to keep telemetry keys present across a sweep whose first point
// has no adversaries); a nil *Plan disables the subsystem entirely and
// keeps the run byte-identical to an adversary-free build.
type Plan struct {
	// Roles lists the adversarial nodes. At most one role per node.
	Roles []Role
}

// Equivocators returns a plan making nodes 0..k-1 equivocate on every
// message — the canonical adversary for the local-broadcast separation.
func Equivocators(k int) *Plan {
	roles := make([]Role, k)
	for i := range roles {
		roles[i] = Role{Node: i, Behavior: Equivocate}
	}
	return &Plan{Roles: roles}
}

// Count returns the number of adversarial nodes.
func (p *Plan) Count() int {
	if p == nil {
		return 0
	}
	return len(p.Roles)
}

// IsAdversary reports whether the plan assigns node i a role.
func (p *Plan) IsAdversary(i int) bool {
	if p == nil {
		return false
	}
	for _, r := range p.Roles {
		if r.Node == i {
			return true
		}
	}
	return false
}

// Validate checks the plan against a network of n nodes. It returns an
// error describing the first violated constraint, or nil.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	if len(p.Roles) >= n && n > 0 {
		return fmt.Errorf("byzantine: %d roles on %d nodes leaves no honest node", len(p.Roles), n)
	}
	seen := make(map[int]bool, len(p.Roles))
	for i, r := range p.Roles {
		if r.Node < 0 || r.Node >= n {
			return fmt.Errorf("byzantine: role %d: node %d outside [0, %d)", i, r.Node, n)
		}
		if seen[r.Node] {
			return fmt.Errorf("byzantine: node %d holds two roles", r.Node)
		}
		seen[r.Node] = true
		switch r.Behavior {
		case Equivocate, Mute, Corrupt, Stall:
		default:
			return fmt.Errorf("byzantine: role %d (node %d): unknown behavior %d", i, r.Node, int(r.Behavior))
		}
		if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("byzantine: role %d (node %d): probability %g outside [0, 1]", i, r.Node, r.Prob)
		}
		if r.StallDelay != nil {
			if r.Behavior != Stall {
				return fmt.Errorf("byzantine: role %d (node %d): StallDelay is only meaningful for stall roles, not %s", i, r.Node, r.Behavior)
			}
			if !(r.StallDelay.Mean() > 0) {
				return fmt.Errorf("byzantine: role %d (node %d): StallDelay mean %g must be positive", i, r.Node, r.StallDelay.Mean())
			}
		}
	}
	return nil
}

// Corruptible is implemented by payload types the adversary knows how to
// forge. Corrupt returns a plausible-but-wrong variant of the payload using
// only the provided stream for randomness; it must not mutate the receiver.
// Payloads that do not implement Corruptible pass through Equivocate and
// Corrupt roles unchanged — the adversary cannot forge what it cannot
// parse.
type Corruptible interface {
	Corrupt(r *rng.Source) any
}

// Telemetry counts what the adversary actually did during one run. It is
// filled by the network layer and surfaced through faults.Telemetry on
// runner.Report. All counters are deterministic given (environment, plan,
// seed).
type Telemetry struct {
	// Equivocations counts per-receiver payload substitutions by
	// Equivocate roles on point-to-point networks.
	Equivocations uint64
	// Corruptions counts consistent payload substitutions: Corrupt roles,
	// plus Equivocate roles defeated by a local-broadcast medium.
	Corruptions uint64
	// Omissions counts messages silently dropped by Mute roles.
	Omissions uint64
	// Stalls counts messages held back by Stall roles.
	Stalls uint64
}

// Total returns the number of adversarial interventions — a single
// headline number for tables.
func (t *Telemetry) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.Equivocations + t.Corruptions + t.Omissions + t.Stalls
}

// MetricsInto contributes the telemetry's named measurements to a metric
// map (used by runner.Report.Metrics for sweep aggregation).
func (t *Telemetry) MetricsInto(m map[string]float64) {
	if t == nil {
		return
	}
	m["byz_equivocations"] = float64(t.Equivocations)
	m["byz_corruptions"] = float64(t.Corruptions)
	m["byz_omissions"] = float64(t.Omissions)
	m["byz_stalls"] = float64(t.Stalls)
}
