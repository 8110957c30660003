package synchronizer

import (
	"fmt"
	"math"

	"abenet/internal/network"
)

// ClockSyncStats accumulates the round-discipline verdict of a run of the
// clock-driven ABD synchronizer (Tel–Korach–Zaks style): every node starts
// round r at local time r·period and sends one round-stamped message per
// out-edge, trusting that the period exceeds the worst-case message delay.
// On a genuine ABD network the trust is justified and the synchronizer
// needs no control messages at all; on an ABE network no finite period is
// safe — Theorem 1's context — and the violation count quantifies exactly
// how unsafe a given period is.
type ClockSyncStats struct {
	// Violations counts messages that arrived after their receiver had
	// already advanced past the sender's round — synchrony broken. On an
	// ABD network with a period above the hard delay bound this is 0; on
	// an ABE network it is positive with probability approaching 1 as the
	// run grows.
	Violations uint64
	// MaxLateness is the worst observed (receiver round − message round)
	// among violations.
	MaxLateness int
}

// NewClockSyncNode returns a node running rounds clock-driven rounds of
// the given local period, recording violations into stats. The period
// must be positive and finite and rounds positive.
func NewClockSyncNode(period float64, rounds int, stats *ClockSyncStats) (network.Node, error) {
	if !(period > 0) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("synchronizer: period %g must be positive and finite", period)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("synchronizer: rounds %d must be positive", rounds)
	}
	return &clockSyncNode{period: period, rounds: rounds, stats: stats}, nil
}

// clockSyncNode emits one stamped heartbeat per out-edge per round and
// verifies the round discipline of everything it receives.
type clockSyncNode struct {
	period float64
	rounds int
	round  int
	stats  *ClockSyncStats
}

// heartbeat is the stamped per-round message.
type heartbeat struct {
	Round int
}

var _ network.Node = (*clockSyncNode)(nil)

// Init implements network.Node: schedule the first round start.
func (n *clockSyncNode) Init(ctx *network.Context) {
	ctx.SetLocalTimerFunc(n.period, 0)
}

// OnTimer implements network.Node: a round boundary on the local clock.
func (n *clockSyncNode) OnTimer(ctx *network.Context, _ int) {
	if n.round >= n.rounds {
		return // done; let in-flight traffic drain
	}
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, heartbeat{Round: n.round})
	}
	n.round++
	if n.round < n.rounds {
		ctx.SetLocalTimerFunc(n.period, 0)
	}
}

// OnMessage implements network.Node: check the round discipline.
func (n *clockSyncNode) OnMessage(ctx *network.Context, _ int, payload any) {
	m, ok := payload.(heartbeat)
	if !ok {
		panic(fmt.Sprintf("synchronizer: foreign payload %T", payload))
	}
	// For round-m.Round data to be usable, it must arrive before this
	// node starts round m.Round+1 — i.e. while n.round <= m.Round+1
	// (n.round is the count of started rounds).
	if lateness := n.round - (m.Round + 1); lateness > 0 {
		n.stats.Violations++
		if lateness > n.stats.MaxLateness {
			n.stats.MaxLateness = lateness
		}
	}
}
