package election

import (
	"fmt"

	"abenet/internal/network"
)

// petersonMessage carries a temporary identity around the ring. Step
// distinguishes the phase's first relay (the nearest active predecessor's
// identity) from the second (the second-nearest's).
type petersonMessage struct {
	Step int // 1 or 2
	TID  int
}

// PetersonNode is Peterson's unidirectional election (1982): a
// deterministic O(n log n) worst-case algorithm for asynchronous
// unidirectional rings with unique identities and FIFO channels.
//
// Every node starts active with its identity as temporary identity t. In
// each phase an active node sends ⟨1, t⟩, learns the nearest active
// predecessor's identity t1 (relayed by passive nodes), forwards it as
// ⟨2, t1⟩, and learns the second-nearest's identity t2. If t1 is a local
// maximum (t1 > t and t1 > t2) the node stays active adopting t1;
// otherwise it turns passive and relays from then on. A node that receives
// its own temporary identity as t1 is the unique remaining active node and
// wins. Each phase at least halves the actives and costs at most 2n
// messages, giving the 2n·log n worst-case bound — the deterministic
// counterpart to Chang–Roberts' average case in experiment E7.
type PetersonNode struct {
	id       int
	sendPort int
	active   bool
	leader   bool

	tid    int
	gotOne bool
	t1     int
	// Phases counts how many phases this node remained active.
	Phases int
}

var _ network.Node = (*PetersonNode)(nil)

// NewPetersonNode returns an active node with the given unique identity.
func NewPetersonNode(id int) *PetersonNode {
	return &PetersonNode{id: id, active: true, tid: id}
}

// IsLeader reports whether this node won.
func (p *PetersonNode) IsLeader() bool { return p.leader }

// Active reports whether this node is still a candidate.
func (p *PetersonNode) Active() bool { return p.active }

// SetSendPort sets the out-port leading to the node's ring successor (0 on
// the natural ring).
func (p *PetersonNode) SetSendPort(port int) { p.sendPort = port }

// Init implements network.Node: open phase one.
func (p *PetersonNode) Init(ctx *network.Context) {
	p.Phases = 1
	ctx.Send(p.sendPort, petersonMessage{Step: 1, TID: p.tid})
}

// OnTimer implements network.Node; Peterson is message-driven.
func (p *PetersonNode) OnTimer(*network.Context, int) {}

// OnMessage implements network.Node.
func (p *PetersonNode) OnMessage(ctx *network.Context, _ int, payload any) {
	m, ok := payload.(petersonMessage)
	if !ok {
		panic(fmt.Sprintf("election: foreign payload %T on Peterson ring", payload))
	}
	if !p.active {
		ctx.Send(p.sendPort, m)
		return
	}
	switch m.Step {
	case 1:
		if m.TID == p.tid {
			// Our own temporary identity travelled the whole ring: we are
			// the last active node.
			p.leader = true
			ctx.StopNetwork("leader elected")
			return
		}
		p.t1 = m.TID
		p.gotOne = true
		ctx.Send(p.sendPort, petersonMessage{Step: 2, TID: m.TID})
	case 2:
		if !p.gotOne {
			// FIFO channels and in-order relaying make step-2 before
			// step-1 impossible; seeing it means the channel assumption
			// was violated.
			panic("election: Peterson received step 2 before step 1 (non-FIFO channel?)")
		}
		p.gotOne = false
		if p.t1 > p.tid && p.t1 > m.TID {
			p.tid = p.t1
			p.Phases++
			ctx.Send(p.sendPort, petersonMessage{Step: 1, TID: p.tid})
		} else {
			p.active = false
		}
	default:
		panic(fmt.Sprintf("election: Peterson message step %d", m.Step))
	}
}
