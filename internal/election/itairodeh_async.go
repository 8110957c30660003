package election

import (
	"fmt"

	"abenet/internal/network"
)

// iraMessage is the Itai–Rodeh token: a random identity, a hop counter, the
// election round it belongs to, and a dirty bit marking an identity clash.
type iraMessage struct {
	ID    int
	Hop   int
	Round int
	Dirty bool
}

// HopCount exposes the hop counter to the causal tracer (trace.HopCarrier).
func (m iraMessage) HopCount() int { return m.Hop }

// ItaiRodehAsyncNode is the classic Itai–Rodeh election for anonymous
// asynchronous unidirectional rings of known size n with FIFO channels.
//
// Every node starts active in round 1 with a random identity from {1..n}
// and sends ⟨id, 1, round, clean⟩. An active node purges tokens smaller
// than its own (by round, then id), turns passive on larger ones, marks
// tokens carrying its own identity dirty, and when its own token returns
// (hop = n) either wins (clean) or draws a fresh identity and starts the
// next round (dirty). Expected message complexity is Θ(n log n) — the
// anonymous asynchronous baseline the ABE algorithm's Θ(n) is measured
// against. FIFO links are required for correctness.
type ItaiRodehAsyncNode struct {
	ringSize int
	sendPort int

	active bool
	leader bool
	id     int
	round  int

	// RoundsStarted counts identity draws, for the experiment harness.
	RoundsStarted int
}

var _ network.Node = (*ItaiRodehAsyncNode)(nil)

// NewItaiRodehAsyncNode returns a node for rings of known size n.
func NewItaiRodehAsyncNode(n int) (*ItaiRodehAsyncNode, error) {
	if n < 2 {
		return nil, fmt.Errorf("election: ring size %d must be at least 2", n)
	}
	return &ItaiRodehAsyncNode{ringSize: n, active: true}, nil
}

// IsLeader reports whether this node won.
func (p *ItaiRodehAsyncNode) IsLeader() bool { return p.leader }

// Active reports whether this node is still a candidate.
func (p *ItaiRodehAsyncNode) Active() bool { return p.active }

// SetSendPort sets the out-port leading to the node's ring successor (0 on
// the natural ring).
func (p *ItaiRodehAsyncNode) SetSendPort(port int) { p.sendPort = port }

// Init implements network.Node: start round 1 with a fresh identity.
func (p *ItaiRodehAsyncNode) Init(ctx *network.Context) {
	p.startRound(ctx)
}

func (p *ItaiRodehAsyncNode) startRound(ctx *network.Context) {
	p.round++
	p.RoundsStarted++
	p.id = 1 + ctx.Rand().Intn(p.ringSize)
	ctx.Send(p.sendPort, iraMessage{ID: p.id, Hop: 1, Round: p.round, Dirty: false})
}

// OnTimer implements network.Node; the algorithm is purely message-driven.
func (p *ItaiRodehAsyncNode) OnTimer(*network.Context, int) {}

// OnMessage implements network.Node.
func (p *ItaiRodehAsyncNode) OnMessage(ctx *network.Context, _ int, payload any) {
	m, ok := payload.(iraMessage)
	if !ok {
		panic(fmt.Sprintf("election: foreign payload %T on Itai-Rodeh ring", payload))
	}
	if !p.active {
		ctx.Send(p.sendPort, iraMessage{ID: m.ID, Hop: m.Hop + 1, Round: m.Round, Dirty: m.Dirty})
		return
	}
	// Active: compare (round, id) lexicographically.
	switch {
	case m.Round > p.round || (m.Round == p.round && m.ID > p.id):
		p.active = false
		ctx.Send(p.sendPort, iraMessage{ID: m.ID, Hop: m.Hop + 1, Round: m.Round, Dirty: m.Dirty})
	case m.Round < p.round || (m.Round == p.round && m.ID < p.id):
		// Purge: our token dominates this one.
	case m.Hop == p.ringSize:
		// Our own token came home.
		if m.Dirty {
			p.startRound(ctx)
		} else {
			p.leader = true
			ctx.StopNetwork("leader elected")
		}
	default:
		// Same round and identity but not ours (hop < n): an identity
		// clash; mark it dirty and pass it on.
		ctx.Send(p.sendPort, iraMessage{ID: m.ID, Hop: m.Hop + 1, Round: m.Round, Dirty: true})
	}
}
