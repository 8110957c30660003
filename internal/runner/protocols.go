package runner

import (
	"fmt"
	"time"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/live"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/synchronizer"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// Election is the paper's probabilistic leader election for anonymous
// unidirectional ABE rings (Section 3). It honours every Env field but
// the adversarial ones (Byzantine, LocalBroadcast); on non-ring
// topologies it runs along the embedded Hamiltonian cycle.
// Extra: ElectionExtra.
type Election struct {
	// A0 is the base activation parameter in (0, 1). 0 means the balanced
	// default A0ForRing(n, δ, tick, 1) — the paper's linear-complexity
	// parameterisation for the environment's mean delay.
	A0 float64
	// TickInterval is the local tick period; 0 means 1.
	TickInterval float64
	// ConstantActivation enables the E5 ablation (constant wake-up rate).
	ConstantActivation bool
	// KeepRunning disables stop-on-leader; requires a finite Env.Horizon.
	KeepRunning bool
	// RecandidacyTimeout, when positive, lets passive nodes rejoin as
	// candidates after that many message-free local clock units. This is
	// the opt-in liveness patch for fault plans that can wedge the
	// election (a healed partition leaves every survivor passive and no
	// token alive); choose it large against n·δ. 0 keeps the paper's
	// passive-forever rule and byte-identical runs.
	RecandidacyTimeout float64
}

// Name implements Protocol.
func (Election) Name() string { return "election" }

// Run implements Protocol.
func (p Election) Run(env Env) (Report, error) {
	if p.KeepRunning && env.Horizon == 0 {
		return Report{}, fmt.Errorf("runner: KeepRunning requires a finite Horizon (tick timers never quiesce)")
	}
	graph, ports, err := env.ring()
	if err != nil {
		return Report{}, err
	}
	n := graph.N()
	a0 := p.A0
	if a0 == 0 {
		tick := p.TickInterval
		if tick == 0 {
			tick = 1
		}
		delta := env.meanDelay()
		if !(delta > 0) {
			return Report{}, fmt.Errorf("runner: cannot derive a default A0 for mean delay %g; set Election.A0 explicitly", delta)
		}
		a0 = core.A0ForRing(n, delta, tick, 1)
	}
	nodes := make([]*core.ElectionNode, n)
	// Fault recovery restarts a node as a fresh instance (churn), but the
	// dead incarnation's measurements — especially any recorded safety
	// violations — must survive into the report, so fold them in before
	// the slot is overwritten.
	var extra ElectionExtra
	var violations []string
	retire := func(node *core.ElectionNode) {
		extra.Activations += node.Activations
		extra.Knockouts += node.Knockouts
		extra.ResidualPurges += node.ResidualPurges
		extra.Recandidacies += node.Recandidacies
		extra.StalePurges += node.StalePurges
		violations = append(violations, node.Violations...)
	}
	return runNetwork(env, deployment{
		graph:      graph,
		discipline: channel.RandomDelayFactory,
		anonymous:  true,
		physical:   true,
		node: func(i int) (network.Node, error) {
			if old := nodes[i]; old != nil {
				retire(old)
			}
			node, err := core.NewElectionNode(core.ElectionNodeConfig{
				RingSize:           n,
				A0:                 a0,
				TickInterval:       p.TickInterval,
				StopOnLeader:       !p.KeepRunning,
				ConstantActivation: p.ConstantActivation,
				SendPort:           portAt(ports, i),
				RecandidacyTimeout: p.RecandidacyTimeout,
			})
			nodes[i] = node
			return node, err
		},
		gauges: electionGauges(nodes),
		extract: func(_ *network.Network, rep *Report) error {
			rep.elect(n, func(i int) bool { return nodes[i].State() == core.Leader })
			for _, node := range nodes {
				retire(node)
			}
			rep.Violations = violations
			rep.Extra = extra
			return nil
		},
	})
}

// electionGauges exposes the election's protocol-level gauges over the
// live node slice. Churn restarts overwrite slots in place, so the gauges
// always read the current incarnation of each node.
func electionGauges(nodes []*core.ElectionNode) probe.Observable {
	count := func(s core.State) func() float64 {
		return func() float64 {
			c := 0
			for _, node := range nodes {
				if node != nil && node.State() == s {
					c++
				}
			}
			return float64(c)
		}
	}
	leaders := count(core.Leader)
	return gauges{
		{Name: "candidates", Read: count(core.Active)},
		{Name: "passive", Read: count(core.Passive)},
		{Name: "elected", Read: func() float64 { return boolMetric(leaders() > 0) }},
	}
}

// gauges is a fixed gauge list as a probe.Observable.
type gauges []probe.Gauge

// ProbeGauges implements probe.Observable.
func (g gauges) ProbeGauges() []probe.Gauge { return g }

// ItaiRodehSync is the phase-based Itai–Rodeh style election for anonymous
// *synchronous* rings — the "most optimal" synchronous baseline the paper
// compares against. It runs on the native round engine: Env.Delay, Links,
// Clocks and Processing do not apply (the synchronous model has no delays);
// Env.MaxRounds bounds the run (0 means 1000·n).
type ItaiRodehSync struct {
	// Q is the per-phase candidacy probability; 0 means the balanced 1/n.
	Q float64
}

// Name implements Protocol.
func (ItaiRodehSync) Name() string { return "itai-rodeh-sync" }

// Run implements Protocol.
func (p ItaiRodehSync) Run(env Env) (Report, error) {
	graph, ports, err := env.ring()
	if err != nil {
		return Report{}, err
	}
	n := graph.N()
	q := p.Q
	if q == 0 {
		q = 1 / float64(n)
	}
	if _, err := election.NewItaiRodehSyncNode(n, q); err != nil {
		return Report{}, err
	}
	nodes := make([]*election.ItaiRodehSyncNode, n)
	engine, err := syncnet.New(syncnet.Config{Graph: graph, Seed: env.Seed, Anonymous: true}, func(i int) syncnet.Node {
		nodes[i], _ = election.NewItaiRodehSyncNode(n, q) // validated above
		nodes[i].SetSendPort(portAt(ports, i))
		return nodes[i]
	})
	if err != nil {
		return Report{}, err
	}
	maxRounds := env.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1000 * n
	}
	rounds, err := engine.Run(maxRounds)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Messages: engine.Messages(), Rounds: rounds}
	rep.elect(n, func(i int) bool { return nodes[i].IsLeader() })
	return rep, nil
}

// ItaiRodehAsync is the classic Itai–Rodeh election for anonymous
// asynchronous rings with FIFO channels (Θ(n log n) expected messages).
// Env.Links, when set, must preserve per-link FIFO order; nil applies the
// FIFO discipline to Env.Delay.
type ItaiRodehAsync struct{}

// Name implements Protocol.
func (ItaiRodehAsync) Name() string { return "itai-rodeh-async" }

// Run implements Protocol.
func (ItaiRodehAsync) Run(env Env) (Report, error) {
	return runRing(env, channel.FIFOFactory, true, func(n, _ int) (ringNode, error) {
		return election.NewItaiRodehAsyncNode(n)
	})
}

// ringNode is a node of a ring election baseline: it relays along its
// send port and reports candidacy and leadership.
type ringNode interface {
	network.Node
	SetSendPort(port int)
	Active() bool
	IsLeader() bool
}

// runRing runs a ring election baseline along env's (embedded) ring, with
// newNode(n, i) on node i and the given channel discipline as the default
// link factory. Its gauges are the number of active candidates and the
// elected flag.
func runRing(env Env, discipline func(dist.Dist) channel.Factory, anonymous bool, newNode func(n, i int) (ringNode, error)) (Report, error) {
	graph, ports, err := env.ring()
	if err != nil {
		return Report{}, err
	}
	n := graph.N()
	nodes := make([]ringNode, n)
	count := func(pred func(ringNode) bool) int {
		c := 0
		for _, node := range nodes {
			if pred(node) {
				c++
			}
		}
		return c
	}
	return runNetwork(env, deployment{
		graph:      graph,
		discipline: discipline,
		anonymous:  anonymous,
		node: func(i int) (network.Node, error) {
			node, err := newNode(n, i)
			if err != nil {
				return nil, err
			}
			node.SetSendPort(portAt(ports, i))
			nodes[i] = node
			return node, nil
		},
		gauges: gauges{
			{Name: "candidates", Read: func() float64 { return float64(count(ringNode.Active)) }},
			{Name: "elected", Read: func() float64 { return boolMetric(count(ringNode.IsLeader) > 0) }},
		},
		extract: func(_ *network.Network, rep *Report) error {
			rep.elect(n, func(i int) bool { return nodes[i].IsLeader() })
			return nil
		},
	})
}

// ChangRoberts is the identity-based Chang–Roberts election on
// asynchronous rings (Θ(n log n) average, Θ(n²) worst case).
type ChangRoberts struct {
	// Arrangement selects the identity layout; 0 means random.
	Arrangement election.ChangRobertsArrangement
}

// Name implements Protocol.
func (ChangRoberts) Name() string { return "chang-roberts" }

// Run implements Protocol.
func (p ChangRoberts) Run(env Env) (Report, error) {
	ids, err := identities(env, p.Arrangement)
	if err != nil {
		return Report{}, err
	}
	return runRing(env, channel.RandomDelayFactory, false, func(_, i int) (ringNode, error) {
		return election.NewChangRobertsNode(ids[i]), nil
	})
}

// identities lays out the unique identities of the identity-based ring
// baselines for env's network size.
func identities(env Env, a election.ChangRobertsArrangement) ([]int, error) {
	n, err := env.size()
	if err != nil {
		return nil, err
	}
	return election.Identities(n, a, env.Seed)
}

// Peterson is Peterson's deterministic O(n log n) election for
// asynchronous unidirectional rings with unique identities and FIFO
// channels. Env.Links, when set, must preserve per-link FIFO order.
type Peterson struct {
	// Arrangement selects the identity layout; 0 means random.
	Arrangement election.ChangRobertsArrangement
}

// Name implements Protocol.
func (Peterson) Name() string { return "peterson" }

// Run implements Protocol.
func (p Peterson) Run(env Env) (Report, error) {
	ids, err := identities(env, p.Arrangement)
	if err != nil {
		return Report{}, err
	}
	return runRing(env, channel.FIFOFactory, false, func(_, i int) (ringNode, error) {
		return election.NewPetersonNode(ids[i]), nil
	})
}

// Synchronized executes an arbitrary synchronous protocol over the
// asynchronous ABE environment via a message-driven synchronizer — the
// machinery behind Theorem 1's n-messages-per-round cost. Extra: SyncExtra.
type Synchronized struct {
	// Kind selects the synchronizer; 0 means the round synchronizer.
	Kind synchronizer.Kind
	// ClusterRadius is the γ-synchronizer's BFS radius; 0 means 2.
	ClusterRadius int
	// Anonymous forbids protocol identity reads.
	Anonymous bool
	// MakeNode builds the synchronous protocol instance per node.
	// Required.
	MakeNode func(i int) syncnet.Node
}

// Name implements Protocol.
func (Synchronized) Name() string { return "synchronized" }

// Run implements Protocol.
func (p Synchronized) Run(env Env) (Report, error) {
	if p.MakeNode == nil {
		return Report{}, fmt.Errorf("runner: synchronized protocol needs a MakeNode constructor")
	}
	kind := p.Kind
	if kind == 0 {
		kind = synchronizer.KindRound
	}
	graph, err := env.graph()
	if err != nil {
		return Report{}, err
	}
	n := graph.N()
	nodes := make([]syncnet.Node, n)
	sync, err := synchronizer.Deploy(kind, graph, p.ClusterRadius, env.MaxRounds, func(i int) syncnet.Node {
		nodes[i] = p.MakeNode(i)
		return nodes[i]
	})
	if err != nil {
		return Report{}, err
	}
	return runNetwork(env, deployment{
		graph:      graph,
		discipline: channel.RandomDelayFactory,
		anonymous:  p.Anonymous,
		node:       func(i int) (network.Node, error) { return sync.Node(i), nil },
		extract: func(net *network.Network, rep *Report) error {
			res, err := sync.Result(net)
			if err != nil {
				return err
			}
			rep.Rounds = res.Rounds
			rep.Extra = SyncExtra{
				MinRounds:        res.MinRounds,
				PayloadMessages:  res.PayloadMessages,
				MessagesPerRound: res.MessagesPerRound,
				Stopped:          res.Stopped,
				StopCause:        res.StopCause,
			}
			// Count leaders when the synchronous protocol reports them.
			rep.elect(n, func(i int) bool {
				lr, ok := nodes[i].(interface{ IsLeader() bool })
				return ok && lr.IsLeader()
			})
			return nil
		},
	})
}

// SynchronizedElection runs the synchronous Itai–Rodeh election over a
// synchronizer on the ABE environment — the paper's "synchronous
// algorithms lose their message complexity" workload (E8b). Extra:
// SyncExtra.
type SynchronizedElection struct {
	// Kind selects the synchronizer; 0 means the round synchronizer.
	Kind synchronizer.Kind
	// Q is the per-phase candidacy probability; 0 means the balanced 1/n.
	Q float64
}

// Name implements Protocol.
func (SynchronizedElection) Name() string { return "synchronized-election" }

// Run implements Protocol.
func (p SynchronizedElection) Run(env Env) (Report, error) {
	// On non-ring topologies the election's tokens must follow the
	// embedded Hamiltonian cycle, exactly as the native ring protocols do.
	graph, ports, err := env.ring()
	if err != nil {
		return Report{}, err
	}
	n := graph.N()
	q := p.Q
	if q == 0 {
		q = 1 / float64(n)
	}
	if _, err := election.NewItaiRodehSyncNode(n, q); err != nil {
		return Report{}, err
	}
	if env.MaxRounds == 0 {
		env.MaxRounds = 100_000
	}
	return Synchronized{
		Kind:      p.Kind,
		Anonymous: true,
		MakeNode: func(i int) syncnet.Node {
			node, _ := election.NewItaiRodehSyncNode(n, q) // validated above
			node.SetSendPort(portAt(ports, i))
			return node
		},
	}.Run(env)
}

// ClockSync is the clock-driven (Tel–Korach–Zaks style) ABD synchronizer
// workload: zero control messages, trusting a hard delay bound that ABE
// networks do not have. Extra: ClockSyncExtra.
type ClockSync struct {
	// Period is the local time between round starts; 0 means twice the
	// environment's mean delay.
	Period float64
	// Rounds is how many rounds each node runs; 0 means 100. Env.MaxRounds,
	// when set, caps the count either way.
	Rounds int
}

// Name implements Protocol.
func (ClockSync) Name() string { return "clock-sync" }

// Run implements Protocol.
func (p ClockSync) Run(env Env) (Report, error) {
	graph, err := env.graph()
	if err != nil {
		return Report{}, err
	}
	period := p.Period
	if period == 0 {
		period = 2 * env.meanDelay()
	}
	rounds := p.Rounds
	if rounds == 0 {
		rounds = 100
	}
	if env.MaxRounds > 0 && rounds > env.MaxRounds {
		rounds = env.MaxRounds
	}
	var stats synchronizer.ClockSyncStats
	return runNetwork(env, deployment{
		graph:      graph,
		discipline: channel.RandomDelayFactory,
		node: func(int) (network.Node, error) {
			return synchronizer.NewClockSyncNode(period, rounds, &stats)
		},
		extract: func(_ *network.Network, rep *Report) error {
			rep.Rounds = rounds
			extra := ClockSyncExtra{RoundViolations: stats.Violations, MaxLateness: stats.MaxLateness}
			if rep.Messages > 0 {
				extra.ViolationRate = float64(stats.Violations) / float64(rep.Messages)
			}
			rep.Extra = extra
			return nil
		},
	})
}

// LiveElection runs the paper's election on real goroutines and channels
// with wall-clock delays — intentionally nondeterministic. The environment
// contributes N (a unidirectional ring; Env.Graph must be nil or a plain
// ring) and Seed; the timing model is wall-clock and configured here.
// Extra: LiveExtra; Report.Time is the elapsed wall-clock in seconds.
type LiveElection struct {
	// A0 is the base activation parameter; 0 means the balanced 1/n².
	A0 float64
	// MeanDelay is the expected link delay; 0 means 200µs.
	MeanDelay time.Duration
	// TickEvery is the local tick period; 0 means MeanDelay.
	TickEvery time.Duration
	// Timeout aborts the run; 0 means 30s.
	Timeout time.Duration
}

// Name implements Protocol.
func (LiveElection) Name() string { return "live-election" }

// NondeterministicRuntime marks the live runtime's results as impure
// functions of (Env, seed): wall clocks and the Go scheduler race for
// real, so serving layers must never cache or de-duplicate these runs.
func (LiveElection) NondeterministicRuntime() bool { return true }

// Run implements Protocol.
func (p LiveElection) Run(env Env) (Report, error) {
	n, err := env.size()
	if err != nil {
		return Report{}, err
	}
	if env.Graph != nil && !isUnidirectionalRing(env.Graph) {
		return Report{}, fmt.Errorf("runner: the live runtime only supports the unidirectional ring")
	}
	res, err := live.RunElection(live.ElectionConfig{
		N:         n,
		A0:        p.A0,
		MeanDelay: p.MeanDelay,
		TickEvery: p.TickEvery,
		Timeout:   p.Timeout,
		Seed:      env.Seed,
	})
	if err != nil {
		return Report{}, err
	}
	return Report{
		Elected:     res.Leaders > 0,
		LeaderIndex: res.LeaderIndex,
		Leaders:     res.Leaders,
		Messages:    res.Messages,
		Time:        res.Elapsed.Seconds(),
		Extra:       LiveExtra{Elapsed: res.Elapsed},
	}, nil
}

// isUnidirectionalRing reports whether g is exactly the ring i → (i+1)%n.
func isUnidirectionalRing(g *topology.Graph) bool {
	n := g.N()
	for u := 0; u < n; u++ {
		out := g.Out(u)
		if len(out) != 1 || out[0] != (u+1)%n {
			return false
		}
	}
	return true
}
