// Package synchronizer implements synchronizers: algorithms that simulate a
// synchronous network on an asynchronous (here: ABE) one.
//
// The paper's Theorem 1 states that ABE networks of size n cannot be
// synchronised with fewer than n messages per round — Awerbuch's lower
// bound for asynchronous networks carries over because every asynchronous
// execution is also an ABE execution. This package provides the machinery
// to observe that cost, and its consequence ("we cannot run synchronous
// algorithms in ABE networks without losing the message complexity"):
//
//   - Round: the message-driven round synchronizer. Every node sends one
//     envelope per out-edge per round (payload or empty) and advances when
//     it has heard round r from all in-neighbours. Exactly |E| ≥ n
//     messages per round — it meets Awerbuch's bound, demonstrating the
//     bound is tight.
//   - Alpha: Awerbuch's α-synchronizer (payload + ack + safe per edge per
//     round) for bidirectional graphs — 3|E| messages per round, the
//     classic general-purpose synchronizer.
//   - Clock (clocksync.go): the Tel–Korach–Zaks style ABD synchronizer
//     that uses *zero* extra messages by trusting a hard delay bound —
//     and therefore cannot be correct on ABE networks, where no hard
//     bound exists (experiment E9 measures its round violations).
package synchronizer

import (
	"errors"
	"fmt"

	"abenet/internal/network"
	"abenet/internal/rng"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// Kind selects a synchronizer construction.
type Kind int

// The message-driven synchronizers.
const (
	// KindRound is the minimal round-message synchronizer (|E|/round).
	KindRound Kind = iota + 1
	// KindAlpha is Awerbuch's α-synchronizer (3|E|/round), bidirectional
	// topologies only.
	KindAlpha
	// KindBeta is Awerbuch's β-synchronizer (payload acks + 2(n−1) tree
	// messages per round), bidirectional topologies only. Cheapest on
	// dense graphs, at the price of Ω(tree depth) round latency.
	KindBeta
	// KindGamma is Awerbuch's γ-synchronizer: β within BFS clusters of
	// bounded radius (Deploy's clusterRadius), α-style safety exchange
	// between adjacent clusters over one preferred edge per pair. It
	// interpolates between α (radius 0-ish) and β (radius ≥ diameter),
	// trading messages against round latency. Bidirectional only.
	KindGamma
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindAlpha:
		return "alpha"
	case KindBeta:
		return "beta"
	case KindGamma:
		return "gamma"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Result summarises a synchronized execution.
type Result struct {
	// Rounds is the highest round any node completed.
	Rounds int
	// MinRounds is the number of rounds completed by every node.
	MinRounds int
	// PayloadMessages counts protocol payloads carried.
	PayloadMessages uint64
	// MessagesPerRound is the network's message count (synchronizer
	// control traffic included) over MinRounds — the sustained per-round
	// message cost Theorem 1 lower bounds by n. MinRounds is the honest
	// denominator: when the protocol stops mid-round some nodes have not
	// executed the final round, and dividing by the maximum would
	// understate the sustained cost.
	MessagesPerRound float64
	// Stopped reports whether the protocol stopped the run (vs hitting
	// the round budget).
	Stopped bool
	// StopCause is the protocol's stop cause, if any.
	StopCause string
}

// Deployment wraps one synchronous protocol instance per node with a
// synchronizer, for a network the caller builds and runs, and reads the
// run's round progress back afterwards.
type Deployment struct {
	graph     *topology.Graph
	wrap      func(i int, proto syncnet.Node, g *topology.Graph) (network.Node, roundReporter)
	makeNode  func(i int) syncnet.Node
	reporters []roundReporter
	maxRounds int
}

// Deploy prepares makeNode's synchronous protocol to run over graph g via
// the kind's synchronizer. clusterRadius is the γ-synchronizer's BFS
// radius (0 means 2; ignored by the other kinds); maxRounds aborts the
// run if the protocol has not stopped by then (0 means 10000).
func Deploy(kind Kind, g *topology.Graph, clusterRadius, maxRounds int, makeNode func(i int) syncnet.Node) (*Deployment, error) {
	if g == nil {
		return nil, errors.New("synchronizer: needs a graph")
	}
	if makeNode == nil {
		return nil, errors.New("synchronizer: nil node constructor")
	}
	if !g.IsStronglyConnected() {
		return nil, errors.New("synchronizer: graph must be strongly connected")
	}
	if maxRounds == 0 {
		maxRounds = 10000
	}
	if kind != KindRound {
		if err := requireBidirectional(g); err != nil {
			return nil, err
		}
	}
	d := &Deployment{graph: g, makeNode: makeNode, reporters: make([]roundReporter, g.N()), maxRounds: maxRounds}
	switch kind {
	case KindRound:
		d.wrap = newRoundNode
	case KindAlpha:
		d.wrap = newAlphaNode
	case KindBeta:
		d.wrap = makeBetaWrap(g)
	case KindGamma:
		d.wrap = makeGammaWrap(g, clusterRadius)
	default:
		return nil, fmt.Errorf("synchronizer: unknown kind %v", kind)
	}
	return d, nil
}

// Node builds the synchronizer-wrapped protocol instance for node i. Each
// wrapped node checks the round budget as it advances (a watchdog node
// cannot exist).
func (d *Deployment) Node(i int) network.Node {
	node, reporter := d.wrap(i, d.makeNode(i), d.graph)
	reporter.setMaxRounds(d.maxRounds)
	d.reporters[i] = reporter
	return node
}

// Result reads the round progress of the finished run on net. It errors
// when the round budget ran out before the protocol stopped.
func (d *Deployment) Result(net *network.Network) (Result, error) {
	res := Result{
		StopCause: net.StopCause(),
		Stopped:   net.StopCause() != "" && net.StopCause() != budgetStopCause,
	}
	for i, r := range d.reporters {
		c := r.completedRounds()
		if c > res.Rounds {
			res.Rounds = c
		}
		if i == 0 || c < res.MinRounds {
			res.MinRounds = c
		}
		res.PayloadMessages += r.payloadCount()
	}
	if res.MinRounds > 0 {
		res.MessagesPerRound = float64(net.Metrics().MessagesSent) / float64(res.MinRounds)
	}
	if !res.Stopped && res.Rounds >= d.maxRounds {
		return res, fmt.Errorf("synchronizer: protocol did not stop within %d rounds", d.maxRounds)
	}
	return res, nil
}

// budgetStopCause marks a round-budget abort rather than a protocol stop.
const budgetStopCause = "synchronizer: round budget exhausted"

// roundReporter lets Run read progress out of wrapped nodes.
type roundReporter interface {
	completedRounds() int
	payloadCount() uint64
	setMaxRounds(r int)
}

func requireBidirectional(g *topology.Graph) error {
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			return fmt.Errorf("synchronizer: alpha needs a bidirectional graph, missing %d->%d", e.To, e.From)
		}
	}
	return nil
}

// protoContext adapts the asynchronous network context plus synchronizer
// state into the syncnet.NodeContext the protocol sees.
type protoContext struct {
	net      *network.Context
	sendFunc func(outPort int, payload any)
}

var _ syncnet.NodeContext = (*protoContext)(nil)

func (c *protoContext) N() int                   { return c.net.N() }
func (c *protoContext) ID() int                  { return c.net.ID() }
func (c *protoContext) OutDegree() int           { return c.net.OutDegree() }
func (c *protoContext) Rand() *rng.Source        { return c.net.Rand() }
func (c *protoContext) StopNetwork(cause string) { c.net.StopNetwork(cause) }

func (c *protoContext) Send(outPort int, payload any) { c.sendFunc(outPort, payload) }
