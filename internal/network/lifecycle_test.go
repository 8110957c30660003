package network

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// beacon ticks every time unit and sends a message on out-port 0 at each
// tick; it records how many times it was (re)initialised.
type beacon struct {
	inits int
	sent  int
	recvd int
}

func (b *beacon) Init(ctx *Context) {
	b.inits++
	ctx.SetLocalTimer(1, 1)
}

func (b *beacon) OnMessage(*Context, int, any) { b.recvd++ }

func (b *beacon) OnTimer(ctx *Context, kind int) {
	ctx.SetLocalTimer(1, 1)
	b.sent++
	ctx.Send(0, b.sent)
}

// beaconRing builds a deterministic two-node ring of beacons under plan.
func beaconRing(t *testing.T, n int, plan *faults.Plan, seed uint64) (*Network, []*beacon) {
	t.Helper()
	nodes := make([]*beacon, n)
	net, err := New(Config{
		Graph:  topology.Ring(n),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(0.5)),
		Seed:   seed,
		Faults: plan,
	}, func(i int) Node {
		// Fresh instance per call: recovery restarts must re-create it.
		nodes[i] = &beacon{}
		return nodes[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

func TestScriptedCrashSuppressesTimersAndDeliveries(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{faults.CrashAt(10, 1)}}
	net, nodes := beaconRing(t, 2, plan, 7)
	if err := net.Run(simtime.Time(30), 0); err != nil {
		t.Fatal(err)
	}
	tel := net.FaultTelemetry()
	if tel == nil {
		t.Fatal("no telemetry despite a fault plan")
	}
	if tel.Crashes != 1 || tel.Recoveries != 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/0", tel.Crashes, tel.Recoveries)
	}
	if !net.NodeDown(1) || net.NodeDown(0) {
		t.Fatal("down state wrong after crash-stop")
	}
	// Node 1 ticked ~10 times before the crash, then fell silent; node 0
	// kept ticking to the horizon.
	if nodes[1].sent < 8 || nodes[1].sent > 11 {
		t.Fatalf("crashed node sent %d beacons, want ~10", nodes[1].sent)
	}
	if nodes[0].sent < 28 {
		t.Fatalf("healthy node sent %d beacons, want ~30", nodes[0].sent)
	}
	// Node 0's beacons to the crashed node become dead letters, and the
	// crashed node's pending tick is suppressed exactly once (the epoch
	// kills the tick chain at its first post-crash fire).
	if tel.DeadLetters == 0 {
		t.Fatal("no dead letters recorded at the crashed node")
	}
	if tel.TimersSuppressed != 1 {
		t.Fatalf("timers suppressed = %d, want 1", tel.TimersSuppressed)
	}
	want := []faults.CrashInterval{{Node: 1, Start: 10, End: -1}}
	if !reflect.DeepEqual(tel.CrashIntervals, want) {
		t.Fatalf("crash intervals = %+v, want %+v", tel.CrashIntervals, want)
	}
}

func TestRecoveryRestartsAFreshIncarnation(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		faults.CrashAt(10, 1),
		faults.RecoverAt(20, 1),
	}}
	net, nodes := beaconRing(t, 2, plan, 7)
	if err := net.Run(simtime.Time(30), 0); err != nil {
		t.Fatal(err)
	}
	tel := net.FaultTelemetry()
	if tel.Crashes != 1 || tel.Recoveries != 1 {
		t.Fatalf("crashes/recoveries = %d/%d, want 1/1", tel.Crashes, tel.Recoveries)
	}
	if net.NodeDown(1) {
		t.Fatal("node 1 still down after scripted recovery")
	}
	want := []faults.CrashInterval{{Node: 1, Start: 10, End: 20}}
	if !reflect.DeepEqual(tel.CrashIntervals, want) {
		t.Fatalf("crash intervals = %+v, want %+v", tel.CrashIntervals, want)
	}
	// The restarted incarnation is a fresh object: the makeNode slot was
	// overwritten and the new instance Init'd once, with ~10 post-restart
	// ticks of its own.
	restarted := net.NodeAt(1).(*beacon)
	if restarted == nodes[1] {
		// nodes[1] was refreshed by makeNode on recovery, so the slices
		// agree again; the old incarnation is simply gone.
		t.Log("restart reused the makeNode slot (expected)")
	}
	if restarted.inits != 1 {
		t.Fatalf("restarted incarnation inits = %d, want 1", restarted.inits)
	}
	if restarted.sent < 8 || restarted.sent > 11 {
		t.Fatalf("restarted incarnation sent %d beacons, want ~10", restarted.sent)
	}
}

func TestScriptedLinkOutageAndPartition(t *testing.T) {
	// Ring 0→1→2→0. Take 0→1 down during [5, 15): node 0's beacons in
	// that window are link drops.
	plan := &faults.Plan{Events: []faults.Event{
		faults.LinkDownAt(5, 0, 1),
		faults.LinkUpAt(15, 0, 1),
	}}
	net, nodes := beaconRing(t, 3, plan, 3)
	if err := net.Run(simtime.Time(30), 0); err != nil {
		t.Fatal(err)
	}
	tel := net.FaultTelemetry()
	if tel.LinkDrops < 8 || tel.LinkDrops > 11 {
		t.Fatalf("link drops = %d, want ~10 (one per tick of the outage)", tel.LinkDrops)
	}
	if tel.Crashes != 0 || tel.DeadLetters != 0 {
		t.Fatalf("unexpected node faults: %+v", tel)
	}
	if nodes[1].recvd >= nodes[2].recvd {
		t.Fatalf("outage downstream node received %d >= %d", nodes[1].recvd, nodes[2].recvd)
	}

	// A partition isolating {0} cuts 0→1 and 2→0 on the ring; healing
	// restores both.
	plan = &faults.Plan{Events: faults.PartitionDuring(5, 15, 0)}
	net, _ = beaconRing(t, 3, plan, 3)
	if err := net.Run(simtime.Time(30), 0); err != nil {
		t.Fatal(err)
	}
	tel2 := net.FaultTelemetry()
	if tel2.LinkDrops < 2*8 || tel2.LinkDrops > 2*11 {
		t.Fatalf("partition drops = %d, want ~20 (two directed cut edges)", tel2.LinkDrops)
	}
}

// TestHealDoesNotClobberScriptedLinkOutage pins the outage layering: a
// partition heal restores only the cut, never a link the plan scripted
// down independently.
func TestHealDoesNotClobberScriptedLinkOutage(t *testing.T) {
	// Ring 0→1→2→0. Edge 0→1 is down for good from t=2; a partition
	// isolating {0} (cutting 0→1 and 2→0) comes and goes during [5, 10).
	plan := &faults.Plan{Events: append(
		faults.PartitionDuring(5, 10, 0),
		faults.LinkDownAt(2, 0, 1),
	)}
	net, nodes := beaconRing(t, 3, plan, 3)
	if err := net.Run(simtime.Time(30), 0); err != nil {
		t.Fatal(err)
	}
	// After the heal, 2→0 flows again but 0→1 stays dead: node 1 must
	// receive nothing sent after t=2 (deliveries in flight at the cut
	// instant may still land).
	if nodes[1].recvd > 3 {
		t.Fatalf("node 1 received %d beacons through a link scripted down at t=2", nodes[1].recvd)
	}
	// Node 0 keeps receiving on 2→0 after the heal, so it sees most of
	// node 2's ~30 beacons (minus the 5-unit cut window).
	if nodes[0].recvd < 20 {
		t.Fatalf("node 0 received %d beacons; the heal did not restore the cut edge", nodes[0].recvd)
	}
}

// TestOverlappingPartitionsCompose pins the cut refcount: an edge crossed
// by two overlapping partitions flows again only after both have healed.
func TestOverlappingPartitionsCompose(t *testing.T) {
	// Ring 0→1→2→0. Partition {0} holds 0→1 and 2→0 during [2, 20);
	// partition {1} holds 0→1 and 1→2 during [10, 28). Edge 0→1 is cut by
	// both, so it must stay down across the first heal at t=20 and only
	// reopen at t=28.
	plan := &faults.Plan{Events: append(
		faults.PartitionDuring(2, 20, 0),
		faults.PartitionDuring(10, 28, 1)...,
	)}
	net, nodes := beaconRing(t, 3, plan, 5)
	if err := net.Run(simtime.Time(34), 0); err != nil {
		t.Fatal(err)
	}
	// Node 1 hears nothing sent in [2, 28): at most the ~1 pre-cut beacon
	// plus the ~6 after the second heal.
	if nodes[1].recvd > 8 {
		t.Fatalf("node 1 received %d beacons; edge 0→1 reopened before both partitions healed", nodes[1].recvd)
	}
	// A single partition of the same total length would have freed 0→1 at
	// t=20; the extra suppression beyond one cut's worth of drops shows up
	// as link drops from both windows (~26 on 0→1 plus the other cut edges).
	if net.FaultTelemetry().LinkDrops < 30 {
		t.Fatalf("link drops = %d, want the union of both cut windows", net.FaultTelemetry().LinkDrops)
	}
}

// TestScriptedLinkEventRejectsAbsentEdge pins the build-time check: a
// direction typo in a per-edge event errors instead of silently no-oping.
func TestScriptedLinkEventRejectsAbsentEdge(t *testing.T) {
	// Ring(3) has 1→2 but not 2→1.
	_, err := New(Config{
		Graph:  topology.Ring(3),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(0.5)),
		Faults: &faults.Plan{Events: []faults.Event{faults.LinkDownAt(1, 2, 1)}},
	}, func(int) Node { return &beacon{} })
	if err == nil {
		t.Fatal("link event on an absent edge must fail the build")
	}
}

// TestStaleStochasticRecoveryDoesNotEndScriptedOutage pins the chain's
// ownership invariant end to end: node 1 crashes stochastically, a
// scripted RecoverAt ends that outage, and a scripted CrashAt then starts
// a crash-stop outage — which the chain's still-pending recovery (armed
// for the first outage) must not resurrect.
func TestStaleStochasticRecoveryDoesNotEndScriptedOutage(t *testing.T) {
	plan := &faults.Plan{
		CrashRate: 0.5, RecoverRate: 0.01,
		Events: []faults.Event{faults.RecoverAt(2, 1), faults.CrashAt(3, 1)},
	}
	net, _ := beaconRing(t, 4, plan, 0) // seed 0: node 1 crashes at t≈1.42
	if err := net.Run(simtime.Time(40), 0); err != nil {
		t.Fatal(err)
	}
	if !net.NodeDown(1) {
		t.Fatal("scripted crash-stop outage of node 1 was ended by a stale stochastic recovery")
	}
	var node1 []faults.CrashInterval
	for _, iv := range net.FaultTelemetry().CrashIntervals {
		if iv.Node == 1 {
			node1 = append(node1, iv)
		}
	}
	if len(node1) != 2 || node1[0].End != 2 || node1[1].Start != 3 || node1[1].End != -1 {
		t.Fatalf("node 1 intervals = %+v, want the stochastic outage closed at t=2 and the scripted one open", node1)
	}
}

// TestScriptedCrashTakesOwnershipOfStochasticOutage pins the merge rule:
// when a scripted crash lands on a node already down stochastically, the
// merged outage belongs to the script — the chain's pending recovery must
// not end it, only the scripted RecoverAt does.
func TestScriptedCrashTakesOwnershipOfStochasticOutage(t *testing.T) {
	plan := &faults.Plan{
		CrashRate: 0.5, RecoverRate: 0.1,
		Events: []faults.Event{faults.CrashAt(15, 1), faults.RecoverAt(40, 1)},
	}
	net, _ := beaconRing(t, 4, plan, 0) // seed 0: node 1 crashes at t≈5.01
	if err := net.Run(simtime.Time(60), 0); err != nil {
		t.Fatal(err)
	}
	merged := false
	for _, iv := range net.FaultTelemetry().CrashIntervals {
		if iv.Node == 1 && iv.Start < 15 && (iv.End > 15 || iv.End == -1) {
			merged = true
			if iv.End != 40 {
				t.Fatalf("merged outage [%g, %g] not held to the scripted RecoverAt(40)", iv.Start, iv.End)
			}
		}
	}
	if !merged {
		t.Fatal("seed drifted: node 1 was not stochastically down when the scripted crash hit")
	}
}

// TestTimeZeroFaultsPrecedeInit pins the start-of-run ordering: a node
// crashed at t=0 never runs Init (its candidacy messages do not leak into
// the run), and a partition scripted from t=0 cuts Init-time sends.
func TestTimeZeroFaultsPrecedeInit(t *testing.T) {
	// relay ring (network_test.go): node 0 sends the only token from Init.
	makeRelays := func(i int) Node { return &relay{budget: 1000, starter: i == 0} }
	build := func(plan *faults.Plan) *Network {
		net, err := New(Config{
			Graph:  topology.Ring(3),
			Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
			Seed:   1,
			Faults: plan,
		}, makeRelays)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	crashed := build(&faults.Plan{Events: []faults.Event{faults.CrashAt(0, 0)}})
	if err := crashed.Run(simtime.Time(10), 0); err != nil {
		t.Fatal(err)
	}
	if m := crashed.Metrics(); m.MessagesSent != 0 {
		t.Fatalf("node crashed at t=0 still sent %d Init messages", m.MessagesSent)
	}

	cut := build(&faults.Plan{Events: faults.PartitionDuring(0, 5, 0)})
	if err := cut.Run(simtime.Time(3), 0); err != nil {
		t.Fatal(err)
	}
	tel := cut.FaultTelemetry()
	if tel.LinkDrops != 1 {
		t.Fatalf("Init-time send across a t=0 partition: %d link drops, want 1", tel.LinkDrops)
	}
	if m := cut.Metrics(); m.MessagesDelivered != 0 {
		t.Fatalf("%d messages crossed a partition scripted from t=0", m.MessagesDelivered)
	}
}

// TestCrashRecoverAtTimeZeroInitsOnce pins the t=0 corner: a node crashed
// and recovered before the run starts is still a single fresh instance,
// initialised exactly once by Run's Init loop.
func TestCrashRecoverAtTimeZeroInitsOnce(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{faults.CrashAt(0, 2), faults.RecoverAt(0, 2)}}
	net, nodes := beaconRing(t, 4, plan, 1)
	if err := net.Run(simtime.Time(10), 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range nodes {
		if b.inits != 1 {
			t.Fatalf("node %d inits = %d, want exactly 1", i, b.inits)
		}
	}
	tel := net.FaultTelemetry()
	if tel.Crashes != 1 || tel.Recoveries != 1 {
		t.Fatalf("telemetry = %+v, want the t=0 crash+recovery recorded once", tel)
	}
}

func TestStochasticChurnIsDeterministic(t *testing.T) {
	plan := &faults.Plan{CrashRate: 0.05, RecoverRate: 0.2, Loss: 0.1, Duplicate: 0.05}
	run := func() *faults.Telemetry {
		net, _ := beaconRing(t, 4, plan, 99)
		if err := net.Run(simtime.Time(200), 0); err != nil {
			t.Fatal(err)
		}
		return net.FaultTelemetry()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry diverged across identical runs:\n a: %+v\n b: %+v", a, b)
	}
	if a.Crashes == 0 || a.Recoveries == 0 {
		t.Fatalf("no churn injected at rate 0.05 over 200 time units: %+v", a)
	}
	if a.MessagesDropped == 0 || a.MessagesDuplicated == 0 {
		t.Fatalf("no link faults injected: %+v", a)
	}
	if len(a.CrashIntervals) != a.Crashes {
		t.Fatalf("%d crash intervals for %d crashes", len(a.CrashIntervals), a.Crashes)
	}
}

// TestEmptyPlanMatchesNilPlan pins the Faults == nil equivalence at the
// network layer: a zero plan must not perturb a single delivery, because
// link-fault streams exist only for non-zero link faults and the
// lifecycle's derived RNG never advances the root streams.
func TestEmptyPlanMatchesNilPlan(t *testing.T) {
	run := func(plan *faults.Plan) (Metrics, int) {
		net, nodes := beaconRing(t, 3, plan, 42)
		if err := net.Run(simtime.Time(50), 0); err != nil {
			t.Fatal(err)
		}
		return net.Metrics(), nodes[0].recvd
	}
	mNil, rNil := run(nil)
	mZero, rZero := run(&faults.Plan{})
	if mNil != mZero || rNil != rZero {
		t.Fatalf("zero plan perturbed the run:\n nil:  %+v (recvd %d)\n zero: %+v (recvd %d)",
			mNil, rNil, mZero, rZero)
	}
	if tel := func() *faults.Telemetry {
		net, _ := beaconRing(t, 3, &faults.Plan{}, 42)
		if err := net.Run(simtime.Time(50), 0); err != nil {
			t.Fatal(err)
		}
		return net.FaultTelemetry()
	}(); tel.TotalFaults() != 0 {
		t.Fatalf("zero plan injected faults: %+v", tel)
	}
}

func TestInvalidPlanRejectedAtBuild(t *testing.T) {
	_, err := New(Config{
		Graph:  topology.Ring(3),
		Links:  channel.RandomDelayFactory(dist.NewExponential(1)),
		Faults: &faults.Plan{Events: []faults.Event{faults.CrashAt(1, 9)}},
	}, func(int) Node { return &beacon{} })
	if err == nil {
		t.Fatal("out-of-range fault event must fail the build")
	}
}

// burst builds an n-node ring in which node 0 sends the payloads
// 0..msgs-1 on its out-edge 0→1 (net.links[0]) from Init, runs it to
// quiescence, and returns node 1's deliveries and their instants. Nodes
// 2..n-1 stay idle.
func burst(t *testing.T, n int, links channel.Factory, plan *faults.Plan, msgs int) (*Network, []int, []simtime.Time) {
	t.Helper()
	var got []int
	var at []simtime.Time
	net, err := New(Config{Graph: topology.Ring(n), Links: links, Seed: 5, Faults: plan}, func(i int) Node {
		switch i {
		case 0:
			return &funcNode{init: func(ctx *Context) {
				for m := range msgs {
					ctx.Send(0, m)
				}
			}}
		case 1:
			return &funcNode{onMessage: func(ctx *Context, _ int, payload any) {
				got = append(got, payload.(int))
				at = append(at, ctx.Now())
			}}
		}
		return &funcNode{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	return net, got, at
}

// TestLinkLossDropRate checks the plan's Loss axis on the send path: the
// drop rate matches, every message is either dropped or delivered, and
// the link never sees a dropped message.
func TestLinkLossDropRate(t *testing.T) {
	const msgs = 20000
	net, got, _ := burst(t, 2, channel.RandomDelayFactory(dist.NewDeterministic(1)), &faults.Plan{Loss: 0.25}, msgs)
	tel := net.FaultTelemetry()
	if tel.MessagesDropped == 0 || tel.MessagesDuplicated != 0 || tel.MessagesDelayed != 0 {
		t.Fatalf("telemetry = %+v", tel)
	}
	if rate := float64(tel.MessagesDropped) / msgs; rate < 0.23 || rate > 0.27 {
		t.Fatalf("drop rate %.4f far from 0.25", rate)
	}
	if n := uint64(len(got)) + tel.MessagesDropped; n != msgs {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(got), tel.MessagesDropped, msgs)
	}
	if sent := net.links[0].Stats().Sent; sent != uint64(len(got)) {
		t.Fatalf("link carried %d messages, want the %d delivered", sent, len(got))
	}
	if m := net.Metrics(); m.MessagesSent != msgs || m.Transmissions != uint64(len(got)) {
		t.Fatalf("metrics = %+v, want %d sent and %d transmissions", m, msgs, len(got))
	}
}

// TestLinkDuplicateAndHoldBack checks the Duplicate and Reorder axes
// together with Loss: delivered = sent − dropped + duplicated, the
// duplicate rate holds among the messages that survive loss, and held
// messages arrive after the hold-back and overtaken by later sends.
func TestLinkDuplicateAndHoldBack(t *testing.T) {
	const msgs = 10000
	plan := &faults.Plan{Loss: 0.1, Duplicate: 0.5, Reorder: 0.5, ReorderDelay: dist.NewDeterministic(10)}
	net, got, at := burst(t, 2, channel.RandomDelayFactory(dist.NewExponential(1)), plan, msgs)
	tel := net.FaultTelemetry()
	if tel.MessagesDropped == 0 || tel.MessagesDuplicated == 0 || tel.MessagesDelayed == 0 {
		t.Fatalf("telemetry = %+v", tel)
	}
	if n, want := uint64(len(got)), msgs-tel.MessagesDropped+tel.MessagesDuplicated; n != want {
		t.Fatalf("delivered %d, want sent − dropped + duplicated = %d", n, want)
	}
	if rate := float64(tel.MessagesDuplicated) / float64(msgs-tel.MessagesDropped); rate < 0.46 || rate > 0.54 {
		t.Fatalf("duplicate rate %.4f far from 0.5", rate)
	}
	late, overtaken := 0, false
	for i, v := range got {
		if at[i] >= 10 {
			late++
		}
		if i > 0 && v < (got)[i-1] {
			overtaken = true
		}
	}
	if late == 0 || !overtaken {
		t.Fatalf("hold-back left no trace: %d deliveries at t >= 10, overtaken %v", late, overtaken)
	}
}

// TestLinkLossKeepsARQRetries checks that loss on the send path composes
// with ARQ links: the surviving messages keep their retransmissions and
// the declared δ stays the ARQ mean slot/p.
func TestLinkLossKeepsARQRetries(t *testing.T) {
	const msgs = 5000
	net, got, _ := burst(t, 2, channel.ARQFactory(0.5, 1), &faults.Plan{Loss: 0.2}, msgs)
	st := net.links[0].Stats()
	if st.Transmissions <= st.Sent {
		t.Fatalf("ARQ under loss lost its retries: %+v", st)
	}
	if dropped := net.FaultTelemetry().MessagesDropped; uint64(len(got))+dropped != msgs {
		t.Fatalf("delivered %d + dropped %d != %d", len(got), dropped, msgs)
	}
	if d := net.MaxLinkMeanDelay(); d != 2 { // slot/p = 1/0.5
		t.Fatalf("MaxLinkMeanDelay = %g, want the ARQ mean 2", d)
	}
}

// TestCrashOnlyPlanLeavesLinksAlone checks that a plan without link faults
// draws no link-fault randomness and moves no delivery: node 1 receives
// every message at the instant it does in a fault-free run, while the
// scripted crash of the idle node 2 still takes effect.
func TestCrashOnlyPlanLeavesLinksAlone(t *testing.T) {
	links := channel.RandomDelayFactory(dist.NewExponential(1))
	_, wantGot, wantAt := burst(t, 3, links, nil, 200)
	net, got, at := burst(t, 3, links, &faults.Plan{Events: []faults.Event{faults.CrashAt(0.5, 2)}}, 200)
	if net.life.linkRNG != nil {
		t.Fatal("a crash-only plan allocated link-fault streams")
	}
	if tel := net.FaultTelemetry(); tel.Crashes != 1 || tel.MessagesDropped+tel.MessagesDuplicated+tel.MessagesDelayed != 0 {
		t.Fatalf("telemetry = %+v, want one crash and no link faults", tel)
	}
	if !reflect.DeepEqual(got, wantGot) || !reflect.DeepEqual(at, wantAt) {
		t.Fatal("a crash-only plan moved deliveries on a link it does not touch")
	}
}

// TestLinkFaultProbabilitiesRejectedAtBuild checks that a Loss, Duplicate
// or Reorder probability outside [0, 1] fails network construction.
func TestLinkFaultProbabilitiesRejectedAtBuild(t *testing.T) {
	for _, plan := range []*faults.Plan{
		{Loss: 1.5},
		{Loss: -0.1},
		{Duplicate: 1.5},
		{Reorder: -0.5},
		{Reorder: math.NaN()},
	} {
		_, err := New(Config{
			Graph:  topology.Ring(3),
			Links:  channel.RandomDelayFactory(dist.NewExponential(1)),
			Faults: plan,
		}, func(int) Node { return &beacon{} })
		if err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Fatalf("plan %+v: build error %v, want an out-of-range rejection", plan, err)
		}
	}
}
