package network

import (
	"abenet/internal/byzantine"
	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// adversary drives a byzantine.Plan against a running network: it sits on
// the send path (Context.Send / Context.Broadcast), ahead of the per-edge
// outage check and link faults in sendOnPort, so a role can coordinate
// what a node tells each of its neighbours. A nil *adversary (Config.Byzantine == nil)
// disables every hook, leaving the network byte-identical to an
// adversary-free build.
//
// Each role holder owns a private stream derived off the run root
// ("byzantine"/node), so adversarial sampling never perturbs the node,
// clock, edge or fault streams: adding a role changes only that node's
// outgoing traffic.
type adversary struct {
	net   *Network
	plan  *byzantine.Plan
	roles []*byzantine.Role // roles[i] = node i's role, nil if honest
	rands []*rng.Source     // rands[i] = node i's adversarial stream
	stall []dist.Dist       // resolved stall distributions (Stall roles)
	tel   byzantine.Telemetry
}

// newAdversary validates the plan against the graph and prepares the
// per-node role table.
func newAdversary(net *Network, plan *byzantine.Plan, root *rng.Source) (*adversary, error) {
	n := net.cfg.Graph.N()
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	adv := &adversary{
		net:   net,
		plan:  plan,
		roles: make([]*byzantine.Role, n),
		rands: make([]*rng.Source, n),
		stall: make([]dist.Dist, n),
	}
	byz := root.Derive("byzantine")
	for i := range plan.Roles {
		role := &plan.Roles[i]
		adv.roles[role.Node] = role
		adv.rands[role.Node] = byz.DeriveIndexed("node", role.Node)
		if role.Behavior == byzantine.Stall {
			if role.StallDelay != nil {
				adv.stall[role.Node] = role.StallDelay
			} else {
				adv.stall[role.Node] = dist.NewExponential(1)
			}
		}
	}
	return adv, nil
}

// intercept applies node from's role to one outgoing payload. atomic is
// true when the payload travels as one local-broadcast transmission (the
// medium then physically prevents per-receiver divergence). It returns the
// possibly substituted payload, whether the message is silently dropped,
// and a hold-back delay (> 0 for stalled messages).
func (a *adversary) intercept(from int, payload any, atomic bool) (out any, drop bool, hold simtime.Duration) {
	role := a.roles[from]
	if role == nil {
		return payload, false, 0
	}
	r := a.rands[from]
	// Prob in (0, 1) draws once per message from the role holder's private
	// stream; 0 and 1 draw nothing, so deterministic roles stay replay-
	// stable no matter how other streams are consumed.
	if !r.Bool(roleProb(role)) {
		return payload, false, 0
	}
	switch role.Behavior {
	case byzantine.Mute:
		a.tel.Omissions++
		return nil, true, 0
	case byzantine.Stall:
		a.tel.Stalls++
		return payload, false, simtime.Duration(a.stall[from].Sample(r))
	case byzantine.Corrupt:
		if c, ok := payload.(byzantine.Corruptible); ok {
			a.tel.Corruptions++
			return c.Corrupt(r), false, 0
		}
		return payload, false, 0
	case byzantine.Equivocate:
		c, ok := payload.(byzantine.Corruptible)
		if !ok {
			return payload, false, 0
		}
		if atomic {
			// The local-broadcast medium defeats equivocation: the one
			// transmission carries one (corrupted) value to everyone.
			a.tel.Corruptions++
		} else {
			// Point-to-point: each receiver gets an independently drawn
			// substitute — the classic two-faced adversary.
			a.tel.Equivocations++
		}
		return c.Corrupt(r), false, 0
	}
	return payload, false, 0
}

// roleProb resolves the role's activation probability (0 means 1).
func roleProb(role *byzantine.Role) float64 {
	if role.Prob == 0 {
		return 1
	}
	return role.Prob
}

// telemetry snapshots the adversary counters.
func (a *adversary) telemetry() *byzantine.Telemetry {
	tel := a.tel
	return &tel
}
