// Package consensus implements randomized binary consensus on the ABE
// kernel: Ben-Or's classic algorithm (PODC 1983) with a selectable coin —
// each node's private local coin, or a common-coin oracle shared by every
// node — running fully message-driven on the asynchronous network layer.
//
// The protocol proceeds in asynchronous rounds of two phases. In phase 1
// every node broadcasts its current estimate and waits for n−f phase-1
// values of its round (its own included); if more than (n+f)/2 of them
// agree on v it proposes v, otherwise it proposes ⊥. In phase 2 it
// broadcasts the proposal and again waits for n−f; seeing more than
// (n+f)/2 identical non-⊥ proposals it *decides* that value, seeing at
// least f+1 it *adopts* it as the next estimate, and otherwise it flips
// its coin. Deciders keep participating (their estimate is pinned to the
// decision) so laggards can catch up; the engine stops the network once
// every honest node has decided.
//
// Why it is here: the paper's bounded-*expected*-delay assumption (ABE
// Definition 1) is exactly the regime Ben-Or needs — rounds complete in
// expected-finite time because the n−f'th arrival has finite expectation —
// and the byzantine.Plan + local-broadcast machinery lets experiment E14
// measure the equivocation tolerance gap Khan & Vaidya prove: under
// point-to-point links safety needs f < n/3, under local broadcast the
// same adversary budget tolerates strictly more equivocators because the
// medium forces every lie to be consistent.
package consensus

import (
	"errors"
	"fmt"

	"abenet/internal/byzantine"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/rng"
	"abenet/internal/topology"
)

// The sentinel estimate/proposal values. Regular values are 0 and 1.
const (
	// Unknown is the ⊥ proposal: "no super-majority seen".
	Unknown int8 = -1
	// notReceived marks an empty slot in a round's tally table.
	notReceived int8 = -2
)

// Msg is one Ben-Or message: a phase-1 report of the sender's current
// estimate, or a phase-2 proposal (possibly Unknown).
type Msg struct {
	Phase int8  // 1 or 2
	Round int32 // 1-based asynchronous round number
	Value int8  // 0 or 1; phase-2 proposals may be Unknown
}

// Corrupt implements byzantine.Corruptible: a forged copy claims a random
// bit. For phase-2 proposals this can turn an honest ⊥ into a concrete
// value backed by no quorum — the most damaging single-message forgery
// available against Ben-Or's counting rules.
func (m Msg) Corrupt(r *rng.Source) any {
	m.Value = int8(r.Intn(2))
	return m
}

// Coin selects the randomness nodes fall back to when a round ends
// undecided.
type Coin int

const (
	// CoinLocal is Ben-Or's original private coin: each node flips its own.
	CoinLocal Coin = iota
	// CoinCommon is a common-coin oracle: every node's flip for round r
	// yields the same bit (a pure function of the run seed and r),
	// modelling a shared-coin primitive without implementing one.
	CoinCommon
)

// InitKind selects the deterministic assignment of initial values.
type InitKind int

const (
	// InitRandom assigns each node an independent random bit (from a
	// dedicated stream, so the assignment never perturbs protocol
	// randomness).
	InitRandom InitKind = iota
	// InitZeros starts every node at 0 (unanimity: validity is testable).
	InitZeros
	// InitOnes starts every node at 1.
	InitOnes
	// InitHalf starts the lower half of the ring at 0 and the upper half
	// at 1 — a maximally split start that exercises the coin.
	InitHalf
)

// Result is the verdict of one consensus run. Agreement and Validity are
// judged over honest nodes only (nodes holding no Byzantine role): the
// classic properties say nothing about what liars output.
type Result struct {
	F       int
	Honest  int // number of honest nodes
	Decided int // honest nodes that decided
	// Decision is the unanimous honest decision, or -1 when no honest node
	// decided or honest deciders disagree.
	Decision int
	// Agreement: no two honest nodes decided different values.
	Agreement bool
	// Validity: if every honest node started with the same value v, every
	// honest decision is v (vacuously true on split starts).
	Validity bool
	// Termination: every honest node decided.
	Termination bool
	// Violations describes any agreement/validity breach.
	Violations []string
	// Rounds is the highest round reached by an honest node.
	Rounds int
	// DecisionRound is the highest round at which an honest node decided
	// (0 when none did).
	DecisionRound int
	// CoinFlips counts coin flips across honest nodes.
	CoinFlips int
	// Ignored counts malformed payloads dropped by honest nodes.
	Ignored int
	// InitialValues is the assignment the run started from.
	InitialValues []int8
}

// Instance is the protocol side of one Ben-Or run on a network the caller
// builds: the node factory, the engine-level decision record (which
// survives churn restarts), the probe gauges and the verdict.
type Instance struct {
	n, f      int
	coin      Coin
	coinSeed  uint64
	maxRounds int32
	initial   []int8
	honest    []bool

	honestCount    int
	decidedHonest  int
	decisions      []int8
	decisionRounds []int32
	nodes          []*node
	stop           func()
}

// NewInstance prepares a Ben-Or run on graph g, which must be complete:
// the counting rules assume every node hears every node. f is the
// provisioned adversary budget — nodes wait for n−f values per phase — and
// must satisfy 3f < n; the adversary plan may assign more roles than f,
// which is how an experiment probes past the tolerance bound. maxRounds
// caps the asynchronous round number (0 means 200); a node reaching it
// halts. Initial values and the common coin come from dedicated streams of
// the seed, so neither perturbs the network's node, edge or clock streams.
func NewInstance(g *topology.Graph, f int, init InitKind, coin Coin, maxRounds int, seed uint64, adversary *byzantine.Plan) (*Instance, error) {
	if g == nil {
		return nil, errors.New("consensus: needs a graph")
	}
	n := g.N()
	for u := 0; u < n; u++ {
		if g.OutDegree(u) != n-1 || len(g.In(u)) != n-1 {
			return nil, fmt.Errorf("consensus: ben-or requires a complete topology; node %d has degree %d/%d, want %d/%d",
				u, g.OutDegree(u), len(g.In(u)), n-1, n-1)
		}
	}
	if f < 0 || 3*f >= n {
		return nil, fmt.Errorf("consensus: f = %d must satisfy 0 <= 3f < n (n = %d): beyond it the phase-1 super-majority is unreachable", f, n)
	}
	if maxRounds == 0 {
		maxRounds = 200
	}
	if maxRounds < 1 {
		return nil, fmt.Errorf("consensus: MaxRounds = %d must be positive", maxRounds)
	}
	setup := rng.New(seed)
	in := &Instance{
		n: n, f: f, coin: coin,
		initial:        initialValues(init, n, setup.Derive("consensus/init")),
		coinSeed:       setup.Derive("consensus/coin").Uint64(),
		maxRounds:      int32(maxRounds),
		honest:         make([]bool, n),
		decisions:      make([]int8, n),
		decisionRounds: make([]int32, n),
		nodes:          make([]*node, n),
	}
	for i := 0; i < n; i++ {
		in.honest[i] = !adversary.IsAdversary(i)
		if in.honest[i] {
			in.honestCount++
		}
		in.decisions[i] = notReceived
	}
	return in, nil
}

// Node builds the protocol instance for node i (also on churn restarts).
func (in *Instance) Node(i int) network.Node {
	in.nodes[i] = &node{
		id: i, n: in.n, f: in.f,
		est:       in.initial[i],
		coin:      in.coin,
		coinSeed:  in.coinSeed,
		maxRounds: in.maxRounds,
		onDecide:  in.onDecide,
	}
	return in.nodes[i]
}

// StopWhenDecided makes the run stop as soon as the last honest node
// decides.
func (in *Instance) StopWhenDecided(net *network.Network) {
	in.stop = func() { net.Kernel().Stop("consensus: every honest node decided") }
}

// onDecide records a decision at the engine, so it survives churn
// restarts and network teardown.
func (in *Instance) onDecide(id int, v int8, round int32) {
	if in.decisions[id] != notReceived {
		return // a churn-restarted incarnation re-deciding
	}
	in.decisions[id] = v
	in.decisionRounds[id] = round
	if in.honest[id] {
		in.decidedHonest++
		if in.decidedHonest == in.honestCount && in.stop != nil {
			in.stop()
		}
	}
}

// ProbeGauges implements probe.Observable: round and phase progress across
// the live node instances and the count of honest deciders.
func (in *Instance) ProbeGauges() []probe.Gauge {
	return []probe.Gauge{
		{Name: "round_max", Read: func() float64 {
			max := int32(0)
			for _, nd := range in.nodes {
				if nd != nil && nd.round > max {
					max = nd.round
				}
			}
			return float64(max)
		}},
		{Name: "round_min", Read: func() float64 {
			min := int32(0)
			first := true
			for _, nd := range in.nodes {
				if nd == nil {
					continue
				}
				if first || nd.round < min {
					min = nd.round
					first = false
				}
			}
			return float64(min)
		}},
		// lead_phase is the phase of the node at the (round, phase)
		// frontier — the lexicographically greatest progress point — not
		// the maximum phase over all nodes: a node at (round 5, phase 0)
		// leads one at (round 4, phase 1), so the gauge reads 0.
		{Name: "lead_phase", Read: func() float64 {
			var round int32
			var phase int8
			for _, nd := range in.nodes {
				if nd == nil {
					continue
				}
				if nd.round > round || (nd.round == round && nd.phase > phase) {
					round, phase = nd.round, nd.phase
				}
			}
			return float64(phase)
		}},
		{Name: "decided", Read: func() float64 { return float64(in.decidedHonest) }},
	}
}

// initialValues builds the deterministic initial assignment.
func initialValues(kind InitKind, n int, r *rng.Source) []int8 {
	initial := make([]int8, n)
	for i := range initial {
		switch kind {
		case InitZeros:
			initial[i] = 0
		case InitOnes:
			initial[i] = 1
		case InitHalf:
			if i >= n/2 {
				initial[i] = 1
			}
		default:
			initial[i] = int8(r.Intn(2))
		}
	}
	return initial
}

// Result judges the run from the engine-level decision record and the
// surviving node instances.
func (in *Instance) Result() Result {
	res := Result{F: in.f, Honest: in.honestCount, Decision: -1, InitialValues: in.initial}
	honest, decisions, decisionRounds := in.honest, in.decisions, in.decisionRounds
	n := in.n
	unanimous := true
	var initRef int8
	first := true
	for i := 0; i < n; i++ {
		if !honest[i] {
			continue
		}
		if first {
			initRef = res.InitialValues[i]
			first = false
		} else if res.InitialValues[i] != initRef {
			unanimous = false
		}
	}

	res.Agreement = true
	res.Validity = true
	decision := int8(notReceived)
	for i := 0; i < n; i++ {
		if nd := in.nodes[i]; honest[i] {
			if int(nd.round) > res.Rounds {
				res.Rounds = int(nd.round)
			}
			res.CoinFlips += nd.coinFlips
			res.Ignored += nd.ignored
		}
		if !honest[i] || decisions[i] == notReceived {
			continue
		}
		res.Decided++
		if int(decisionRounds[i]) > res.DecisionRound {
			res.DecisionRound = int(decisionRounds[i])
		}
		if decision == notReceived {
			decision = decisions[i]
		} else if decisions[i] != decision && res.Agreement {
			res.Agreement = false
			res.Violations = append(res.Violations,
				fmt.Sprintf("agreement violated: honest nodes decided both %d and %d", decision, decisions[i]))
		}
		if unanimous && decisions[i] != initRef {
			res.Validity = false
			res.Violations = append(res.Violations,
				fmt.Sprintf("validity violated: every honest node started with %d but node %d decided %d", initRef, i, decisions[i]))
		}
	}
	res.Termination = res.Decided == res.Honest
	if res.Agreement && decision != notReceived {
		res.Decision = int(decision)
	}
	return res
}

// node is one Ben-Or protocol instance. Per-round tallies live in n-slot
// tables (in-ports 0..n−2 for the other nodes, slot n−1 for the node's own
// value); future-round messages buffer in the same maps and completed
// rounds are deleted, so memory stays bounded by the in-flight round span.
type node struct {
	id, n, f  int
	est       int8
	round     int32
	phase     int8
	decided   bool
	decision  int8
	halted    bool
	coin      Coin
	coinSeed  uint64
	coinFlips int
	ignored   int
	maxRounds int32

	reports   map[int32][]int8 // phase-1 values per round
	proposals map[int32][]int8 // phase-2 proposals per round
	reportN   map[int32]int
	proposalN map[int32]int

	onDecide func(id int, v int8, round int32)
}

var _ network.Node = (*node)(nil)

// Init implements network.Node.
func (nd *node) Init(ctx *network.Context) {
	nd.reports = make(map[int32][]int8)
	nd.proposals = make(map[int32][]int8)
	nd.reportN = make(map[int32]int)
	nd.proposalN = make(map[int32]int)
	nd.round = 1
	nd.phase = 1
	nd.record(nd.reports, nd.reportN, 1, nd.n-1, nd.est)
	ctx.Broadcast(Msg{Phase: 1, Round: 1, Value: nd.est})
	nd.advance(ctx)
}

// OnMessage implements network.Node. Malformed payloads — wrong type,
// out-of-range phase/round/value — are counted and dropped rather than
// trusted: an adversary must not crash an honest node.
func (nd *node) OnMessage(ctx *network.Context, inPort int, payload any) {
	if nd.halted {
		return
	}
	m, ok := payload.(Msg)
	if !ok {
		nd.ignored++
		return
	}
	if m.Round < 1 || m.Round > nd.maxRounds {
		nd.ignored++
		return
	}
	switch m.Phase {
	case 1:
		if m.Value != 0 && m.Value != 1 {
			nd.ignored++
			return
		}
		nd.record(nd.reports, nd.reportN, m.Round, inPort, m.Value)
	case 2:
		if m.Value != 0 && m.Value != 1 && m.Value != Unknown {
			nd.ignored++
			return
		}
		nd.record(nd.proposals, nd.proposalN, m.Round, inPort, m.Value)
	default:
		nd.ignored++
		return
	}
	nd.advance(ctx)
}

// OnTimer implements network.Node: the protocol is purely message-driven.
func (nd *node) OnTimer(ctx *network.Context, kind int) {}

// record stores the first value per (table, round, slot); duplicates (from
// fault-plan duplication) are ignored. It reports whether the slot was new.
func (nd *node) record(m map[int32][]int8, counts map[int32]int, round int32, slot int, v int8) bool {
	t := m[round]
	if t == nil {
		t = make([]int8, nd.n)
		for i := range t {
			t[i] = notReceived
		}
		m[round] = t
	}
	if t[slot] != notReceived {
		return false
	}
	t[slot] = v
	counts[round]++
	return true
}

// advance runs the state machine as far as buffered messages allow —
// possibly several phases, when future-round traffic arrived early.
func (nd *node) advance(ctx *network.Context) {
	for !nd.halted {
		switch {
		case nd.phase == 1 && nd.reportN[nd.round] >= nd.n-nd.f:
			c0, c1 := tally(nd.reports[nd.round])
			prop := Unknown
			if 2*c0 > nd.n+nd.f {
				prop = 0
			} else if 2*c1 > nd.n+nd.f {
				prop = 1
			}
			nd.phase = 2
			nd.record(nd.proposals, nd.proposalN, nd.round, nd.n-1, prop)
			ctx.Broadcast(Msg{Phase: 2, Round: nd.round, Value: prop})

		case nd.phase == 2 && nd.proposalN[nd.round] >= nd.n-nd.f:
			c0, c1 := tally(nd.proposals[nd.round])
			if 2*c0 > nd.n+nd.f {
				nd.decide(0)
			} else if 2*c1 > nd.n+nd.f {
				nd.decide(1)
			}
			switch {
			case nd.decided:
				nd.est = nd.decision // pinned: deciders keep relaying
			case c0 >= nd.f+1 && c0 >= c1:
				nd.est = 0
			case c1 >= nd.f+1:
				nd.est = 1
			default:
				nd.est = nd.coinFlip(ctx)
			}
			delete(nd.reports, nd.round)
			delete(nd.proposals, nd.round)
			delete(nd.reportN, nd.round)
			delete(nd.proposalN, nd.round)
			if nd.round >= nd.maxRounds {
				nd.halted = true
				return
			}
			nd.round++
			nd.phase = 1
			nd.record(nd.reports, nd.reportN, nd.round, nd.n-1, nd.est)
			ctx.Broadcast(Msg{Phase: 1, Round: nd.round, Value: nd.est})

		default:
			return
		}
	}
}

// decide locks in v (idempotent: the first decision wins).
func (nd *node) decide(v int8) {
	if nd.decided {
		return
	}
	nd.decided = true
	nd.decision = v
	nd.onDecide(nd.id, v, nd.round)
}

// coinFlip returns the round's fallback bit. The common coin is a pure
// function of (coin seed, round), so every node flipping in round r sees
// the same bit regardless of when it flips.
func (nd *node) coinFlip(ctx *network.Context) int8 {
	nd.coinFlips++
	if nd.coin == CoinCommon {
		coin := rng.New(nd.coinSeed).Stream("round").At(int(nd.round))
		return int8(coin.Uint64() & 1)
	}
	return int8(ctx.Rand().Intn(2))
}

// tally counts the 0s and 1s in a round table (Unknown and empty slots
// count as neither).
func tally(t []int8) (c0, c1 int) {
	for _, v := range t {
		switch v {
		case 0:
			c0++
		case 1:
			c1++
		}
	}
	return c0, c1
}
