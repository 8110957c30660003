package synchronizer_test

import (
	"math"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/runner"
	"abenet/internal/synchronizer"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// syncRun is one synchronized run's outcome: the report with its
// SyncExtra promoted alongside the common fields.
type syncRun struct {
	runner.Report
	runner.SyncExtra
}

// run executes makeNode's synchronous protocol over the synchronizer p
// selects on env, through the runner.
func run(env runner.Env, p runner.Synchronized, makeNode func(i int) syncnet.Node) (syncRun, error) {
	p.MakeNode = makeNode
	rep, err := runner.Run(env, p)
	ex, _ := rep.Extra.(runner.SyncExtra)
	return syncRun{rep, ex}, err
}

// clockRun is one clock-sync run's outcome: the report with its
// ClockSyncExtra promoted alongside the common fields.
type clockRun struct {
	runner.Report
	runner.ClockSyncExtra
}

// runClockSync executes the clock-driven synchronizer workload p on env
// through the runner.
func runClockSync(env runner.Env, p runner.ClockSync) (clockRun, error) {
	rep, err := runner.Run(env, p)
	ex, _ := rep.Extra.(runner.ClockSyncExtra)
	return clockRun{rep, ex}, err
}

// counterProto counts rounds and records its inbox history; it stops the
// network after Limit rounds.
type counterProto struct {
	limit   int
	inboxes [][]syncnet.Message
}

func (p *counterProto) Round(ctx syncnet.NodeContext, round int, inbox []syncnet.Message) {
	copied := make([]syncnet.Message, len(inbox))
	copy(copied, inbox)
	p.inboxes = append(p.inboxes, copied)
	if round >= p.limit {
		ctx.StopNetwork("rounds done")
		return
	}
	// Send the round number to every neighbour.
	for port := 0; port < ctx.OutDegree(); port++ {
		ctx.Send(port, round)
	}
}

func runCounter(t *testing.T, kind synchronizer.Kind, g *topology.Graph, limit int, seed uint64) (syncRun, []*counterProto) {
	t.Helper()
	protos := make([]*counterProto, g.N())
	res, err := run(runner.Env{Graph: g, Seed: seed}, runner.Synchronized{Kind: kind}, func(i int) syncnet.Node {
		protos[i] = &counterProto{limit: limit}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, protos
}

func TestRoundSynchronizerPreservesSynchronousSemantics(t *testing.T) {
	// Every node must see, in round r+1, exactly the messages sent to it
	// in round r — here: one message per in-neighbour carrying r.
	res, protos := runCounter(t, synchronizer.KindRound, topology.Ring(5), 10, 1)
	if !res.Stopped {
		t.Fatalf("run did not stop: %+v", res)
	}
	for i, p := range protos {
		// On a unidirectional ring the synchronizer pipelines: there is
		// no back-pressure, so the round wavefront can spread up to n−1
		// rounds across the ring when the stopper halts it. Verify every
		// round that actually ran.
		if len(p.inboxes) < 10-4 {
			t.Fatalf("node %d ran %d rounds", i, len(p.inboxes))
		}
		if len(p.inboxes[0]) != 0 {
			t.Fatalf("node %d round 0 inbox %v", i, p.inboxes[0])
		}
		for r := 1; r < len(p.inboxes); r++ {
			inbox := p.inboxes[r]
			if len(inbox) != 1 {
				t.Fatalf("node %d round %d inbox size %d, want 1", i, r, len(inbox))
			}
			v, ok := inbox[0].Payload.(int)
			if !ok || v != r-1 {
				t.Fatalf("node %d round %d payload %v, want %d", i, r, inbox[0].Payload, r-1)
			}
		}
	}
}

func TestAlphaSynchronizerPreservesSynchronousSemantics(t *testing.T) {
	res, protos := runCounter(t, synchronizer.KindAlpha, topology.BiRing(4), 8, 2)
	if !res.Stopped {
		t.Fatalf("run did not stop: %+v", res)
	}
	for i, p := range protos {
		// The stopper halts the network mid-round; other nodes may have
		// executed one round fewer. Check every round that actually ran.
		if len(p.inboxes) < 7 {
			t.Fatalf("node %d ran only %d rounds", i, len(p.inboxes))
		}
		for r := 1; r < len(p.inboxes); r++ {
			inbox := p.inboxes[r]
			if len(inbox) != 2 {
				t.Fatalf("node %d round %d inbox size %d, want 2", i, r, len(inbox))
			}
			for _, m := range inbox {
				v, ok := m.Payload.(int)
				if !ok || v != r-1 {
					t.Fatalf("node %d round %d payload %v, want %d", i, r, m.Payload, r-1)
				}
			}
		}
	}
}

func TestTheorem1MessagesPerRoundAtLeastN(t *testing.T) {
	// Theorem 1: no synchronizer can use fewer than n messages per round.
	// Both our synchronizers must respect (and the round synchronizer
	// exactly meet, on rings) that bound.
	graphs := map[string]*topology.Graph{
		"ring8":      topology.Ring(8),
		"biring8":    topology.BiRing(8),
		"complete6":  topology.Complete(6),
		"hypercube3": topology.Hypercube(3),
	}
	for name, g := range graphs {
		res, _ := runCounter(t, synchronizer.KindRound, g, 20, 3)
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s/round: %.2f messages/round < n=%d — violates Theorem 1's bound", name, res.MessagesPerRound, g.N())
		}
	}
	for _, name := range []string{"biring8", "complete6", "hypercube3"} {
		g := graphs[name]
		res, _ := runCounter(t, synchronizer.KindAlpha, g, 20, 4)
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s/alpha: %.2f messages/round < n=%d", name, res.MessagesPerRound, g.N())
		}
	}
}

func TestRoundSynchronizerIsMessageOptimalOnRings(t *testing.T) {
	// On a unidirectional ring |E| = n, so the round synchronizer should
	// achieve Theorem 1's bound with equality (modulo the final partial
	// round when the protocol stops).
	g := topology.Ring(8)
	res, _ := runCounter(t, synchronizer.KindRound, g, 50, 5)
	if res.MessagesPerRound < 8-1e-9 || res.MessagesPerRound > 8*1.1 {
		t.Fatalf("messages/round = %.3f, want about n = 8", res.MessagesPerRound)
	}
}

func TestAlphaCostsThreePerEdgePerRound(t *testing.T) {
	g := topology.BiRing(6) // 12 directed edges
	res, _ := runCounter(t, synchronizer.KindAlpha, g, 30, 6)
	perRound := res.MessagesPerRound
	if perRound < 0.9*3*12 || perRound > 1.1*3*12 {
		t.Fatalf("alpha messages/round = %.2f, want about 36", perRound)
	}
}

func TestSynchronizersIndifferentToDelayShape(t *testing.T) {
	for _, d := range []dist.Dist{dist.NewDeterministic(1), dist.NewExponential(1), dist.ParetoWithMean(1, 2)} {
		protos := make([]*counterProto, 4)
		res, err := run(runner.Env{Graph: topology.Ring(4), Links: channel.RandomDelayFactory(d), Seed: 7}, runner.Synchronized{Kind: synchronizer.KindRound}, func(i int) syncnet.Node {
			protos[i] = &counterProto{limit: 12}
			return protos[i]
		})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !res.Stopped || res.Rounds < 12 {
			t.Fatalf("%s: %+v", d.Name(), res)
		}
	}
}

func TestSynchronizerIndifferentToClockDrift(t *testing.T) {
	protos := make([]*counterProto, 4)
	res, err := run(runner.Env{Graph: topology.Ring(4), Clocks: clock.NewWanderingModel(0.25, 4, 1), Seed: 8}, runner.Synchronized{Kind: synchronizer.KindRound}, func(i int) syncnet.Node {
		protos[i] = &counterProto{limit: 12}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("drifting clocks broke the message-driven synchronizer: %+v", res)
	}
}

func TestRoundBudgetAborts(t *testing.T) {
	// A protocol that never stops must trip the budget error.
	_, err := run(runner.Env{Graph: topology.Ring(3), MaxRounds: 25, Seed: 9}, runner.Synchronized{Kind: synchronizer.KindRound}, func(int) syncnet.Node {
		return &counterProto{limit: 1 << 30}
	})
	if err == nil {
		t.Fatal("runaway protocol did not trip the round budget")
	}
}

func TestRunValidation(t *testing.T) {
	mk := func(int) syncnet.Node { return &counterProto{limit: 1} }
	if _, err := run(runner.Env{}, runner.Synchronized{Kind: synchronizer.KindRound}, mk); err == nil {
		t.Fatal("missing graph accepted")
	}
	if _, err := run(runner.Env{Graph: topology.Ring(3)}, runner.Synchronized{Kind: synchronizer.KindRound}, nil); err == nil {
		t.Fatal("nil constructor accepted")
	}
	if _, err := run(runner.Env{Graph: topology.Ring(3)}, runner.Synchronized{Kind: 99}, mk); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := run(runner.Env{Graph: topology.Ring(3)}, runner.Synchronized{Kind: synchronizer.KindAlpha}, mk); err == nil {
		t.Fatal("alpha on unidirectional ring accepted")
	}
	disconnected := topology.New(3)
	disconnected.AddEdge(0, 1)
	disconnected.AddEdge(1, 0)
	if _, err := run(runner.Env{Graph: disconnected}, runner.Synchronized{Kind: synchronizer.KindRound}, mk); err == nil {
		t.Fatal("non-strongly-connected graph accepted")
	}
}

func TestClockSyncPerfectOnABDNetwork(t *testing.T) {
	// Bounded delays (uniform in [0, 1]) and Period > 1: the ABD
	// assumption holds, so there must be zero violations.
	res, err := runClockSync(runner.Env{Graph: topology.Ring(8), Delay: dist.NewUniform(0, 1), Seed: 1}, runner.ClockSync{Period: 1.05, Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundViolations != 0 {
		t.Fatalf("ABD network produced %d violations", res.RoundViolations)
	}
	if res.Messages != 8*200 {
		t.Fatalf("messages = %d, want 1600", res.Messages)
	}
}

func TestClockSyncFailsOnABENetwork(t *testing.T) {
	// Same expected delay (0.5) but exponential: P(delay > 1.05) ≈ 12%,
	// so violations must appear — the E9/Theorem 1 demonstration.
	res, err := runClockSync(runner.Env{Graph: topology.Ring(8), Delay: dist.NewExponential(0.5), Seed: 1}, runner.ClockSync{Period: 1.05, Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundViolations == 0 {
		t.Fatal("ABE network produced no violations — unbounded delays must break a clock synchronizer")
	}
	rate := res.ViolationRate
	if rate < 0.01 || rate > 0.5 {
		t.Fatalf("violation rate %v implausible for exp(0.5) vs period 1.05", rate)
	}
}

func TestClockSyncViolationRateDropsWithPeriod(t *testing.T) {
	rate := func(period float64) float64 {
		res, err := runClockSync(runner.Env{Graph: topology.Ring(8), Delay: dist.NewExponential(1), Seed: 2}, runner.ClockSync{Period: period, Rounds: 300})
		if err != nil {
			t.Fatal(err)
		}
		return res.ViolationRate
	}
	r2, r6 := rate(2), rate(6)
	if r6 >= r2 {
		t.Fatalf("longer period did not reduce violations: %v vs %v", r2, r6)
	}
	if r6 == 0 {
		// For exponential delays the violation probability never reaches
		// zero; with 2400 messages and P ≈ e^-5 ≈ 0.7% we expect hits.
		t.Log("note: no violations at period 6 in this sample (possible but unlikely)")
	}
}

func TestClockSyncExponentialTailMatchesTheory(t *testing.T) {
	// For exp(1) delays and period P the per-message violation probability
	// is roughly e^{-P} (arrival after the receiver's next tick). Check
	// the measured rate is the right order of magnitude.
	const period = 3.0
	res, err := runClockSync(runner.Env{Graph: topology.Ring(16), Delay: dist.NewExponential(1), Seed: 3}, runner.ClockSync{Period: period, Rounds: 400})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-period)
	got := res.ViolationRate
	if got < want/4 || got > want*4 {
		t.Fatalf("violation rate %v, want within 4x of e^-P = %v", got, want)
	}
}

func TestClockSyncValidation(t *testing.T) {
	if _, err := runClockSync(runner.Env{}, runner.ClockSync{Period: 1, Rounds: 1}); err == nil {
		t.Fatal("missing graph accepted")
	}
	// Zero Period and Rounds select the defaults; values no run can use
	// are errors.
	if _, err := runClockSync(runner.Env{Graph: topology.Ring(3)}, runner.ClockSync{Period: -1, Rounds: 1}); err == nil {
		t.Fatal("negative period accepted")
	}
	if _, err := runClockSync(runner.Env{Graph: topology.Ring(3)}, runner.ClockSync{Period: 1, Rounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := synchronizer.NewClockSyncNode(math.Inf(1), 1, &synchronizer.ClockSyncStats{}); err == nil {
		t.Fatal("infinite period accepted")
	}
}

func TestKindString(t *testing.T) {
	if synchronizer.KindRound.String() != "round" || synchronizer.KindAlpha.String() != "alpha" {
		t.Fatal("kind strings wrong")
	}
	if synchronizer.Kind(42).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}
