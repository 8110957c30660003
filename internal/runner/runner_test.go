package runner

import (
	"fmt"
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/network"
	"abenet/internal/simtime"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// TestGoldenEquivalence pins the new Env/Protocol path byte-identical to
// the golden seeds of core.TestGoldenSeeds: running through runner.Run
// must reproduce the exact trajectories of the historical entry points.
// If this table ever needs to change, core/golden_test.go must change in
// the same commit and for the same stated reason.
func TestGoldenEquivalence(t *testing.T) {
	delays := map[string]dist.Dist{
		"exp":     nil, // default: Exponential(1)
		"det":     dist.NewDeterministic(1),
		"uniform": dist.NewUniform(0, 2),
		"pareto":  dist.ParetoWithMean(1, 1.5),
		"retx":    dist.NewRetransmission(0.5, 0.5),
		"erlang":  dist.NewErlang(4, 1),
	}
	golden := []struct {
		delay                                       string
		n, leader, messages, activations, knockouts int
		time                                        string
	}{
		{"exp", 4, 1, 8, 3, 2, "9.19898652"},
		{"exp", 8, 7, 8, 1, 0, "19.8543429"},
		{"exp", 16, 6, 16, 1, 0, "55.7411288"},
		{"det", 8, 7, 8, 1, 0, "18"},
		{"uniform", 8, 7, 8, 1, 0, "21.0081605"},
		{"pareto", 8, 7, 8, 1, 0, "16.2780861"},
		{"retx", 8, 7, 8, 1, 0, "19"},
		{"erlang", 8, 7, 8, 1, 0, "17.4052757"},
	}
	for _, g := range golden {
		g := g
		t.Run(fmt.Sprintf("%s/n=%d", g.delay, g.n), func(t *testing.T) {
			rep, err := Run(
				Env{N: g.n, Delay: delays[g.delay], Seed: 42},
				Election{A0: core.DefaultA0(g.n)},
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := RequireElected(rep); err != nil {
				t.Fatal(err)
			}
			ex, ok := rep.Extra.(ElectionExtra)
			if !ok {
				t.Fatalf("Extra is %T, want ElectionExtra", rep.Extra)
			}
			got := []int{rep.LeaderIndex, int(rep.Messages), ex.Activations, ex.Knockouts}
			want := []int{g.leader, g.messages, g.activations, g.knockouts}
			for i, name := range []string{"leader", "messages", "activations", "knockouts"} {
				if got[i] != want[i] {
					t.Errorf("%s = %d, want %d", name, got[i], want[i])
				}
			}
			if ts := fmt.Sprintf("%.9g", rep.Time); ts != g.time {
				t.Errorf("time = %s, want %s", ts, g.time)
			}
		})
	}
}

// TestRunMatchesDirectEngineCalls checks that Run produces the numbers of
// the same run composed by hand from its layers — topology, link factory,
// network (or round engine) and protocol nodes — so the shared pipeline
// adds nothing and drops nothing.
func TestRunMatchesDirectEngineCalls(t *testing.T) {
	// compose builds a network over the default ring with exponential(1)
	// links and runs it unbounded under the default event guard.
	compose := func(t *testing.T, n int, seed uint64, links func(dist.Dist) channel.Factory, node func(i int) network.Node) *network.Network {
		t.Helper()
		net, err := network.New(network.Config{
			Graph: topology.Ring(n), Links: links(dist.NewExponential(1)), Seed: seed, Anonymous: true,
		}, node)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(simtime.Forever, DefaultMaxEvents); err != nil {
			t.Fatal(err)
		}
		return net
	}
	t.Run("election", func(t *testing.T) {
		nodes := make([]*core.ElectionNode, 12)
		net := compose(t, 12, 99, channel.RandomDelayFactory, func(i int) network.Node {
			node, err := core.NewElectionNode(core.ElectionNodeConfig{RingSize: 12, A0: core.DefaultA0(12), StopOnLeader: true})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
			return node
		})
		rep, err := Run(Env{N: 12, Seed: 99}, Election{A0: core.DefaultA0(12)})
		if err != nil {
			t.Fatal(err)
		}
		m := net.Metrics()
		activations := 0
		for _, node := range nodes {
			activations += node.Activations
		}
		if nodes[rep.LeaderIndex].State() != core.Leader || m.MessagesSent != rep.Messages ||
			m.Transmissions != rep.Transmissions || float64(net.Now()) != rep.Time ||
			net.Kernel().Executed() != rep.Events || core.ParamsOf(net) != rep.Params ||
			activations != rep.Extra.(ElectionExtra).Activations {
			t.Fatalf("diverged: composed %+v at %v, run %+v", m, net.Now(), rep)
		}
	})
	t.Run("itai-rodeh-sync", func(t *testing.T) {
		nodes := make([]*election.ItaiRodehSyncNode, 9)
		engine, err := syncnet.New(syncnet.Config{Graph: topology.Ring(9), Seed: 5, Anonymous: true}, func(i int) syncnet.Node {
			nodes[i], _ = election.NewItaiRodehSyncNode(9, 1.0/9)
			return nodes[i]
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := engine.Run(9000)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Env{N: 9, Seed: 5}, ItaiRodehSync{})
		if err != nil {
			t.Fatal(err)
		}
		if !nodes[rep.LeaderIndex].IsLeader() || engine.Messages() != rep.Messages || rounds != rep.Rounds {
			t.Fatalf("diverged: composed %d msgs in %d rounds, run %+v", engine.Messages(), rounds, rep)
		}
	})
	t.Run("chang-roberts", func(t *testing.T) {
		ids, err := election.Identities(10, election.ArrangementRandom, 3)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*election.ChangRobertsNode, 10)
		net := compose(t, 10, 3, channel.RandomDelayFactory, func(i int) network.Node {
			nodes[i] = election.NewChangRobertsNode(ids[i])
			return nodes[i]
		})
		rep, err := Run(Env{N: 10, Seed: 3}, ChangRoberts{})
		if err != nil {
			t.Fatal(err)
		}
		if !nodes[rep.LeaderIndex].IsLeader() || net.Metrics().MessagesSent != rep.Messages || float64(net.Now()) != rep.Time {
			t.Fatalf("diverged: composed %+v at %v, run %+v", net.Metrics(), net.Now(), rep)
		}
	})
}

// TestElectionsOnNonRingTopologies smoke-tests the ring protocols on every
// topology family that embeds a Hamiltonian cycle — the environments the
// old config structs could not even express.
func TestElectionsOnNonRingTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring":    topology.BiRing(8),
		"complete":  topology.Complete(8),
		"hypercube": topology.Hypercube(3),
	}
	protocols := []Protocol{
		Election{},
		ItaiRodehSync{},
		ItaiRodehAsync{},
		ChangRoberts{},
		Peterson{},
		SynchronizedElection{},
	}
	for name, g := range graphs {
		for _, p := range protocols {
			p := p
			t.Run(fmt.Sprintf("%s/%s", p.Name(), name), func(t *testing.T) {
				rep, err := Run(Env{Graph: g, Seed: 11}, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := RequireElected(rep); err != nil {
					t.Fatal(err)
				}
				if rep.Messages == 0 {
					t.Fatal("no messages recorded")
				}
			})
		}
	}
	// A topology without a Hamiltonian cycle must be rejected, not
	// silently mis-run.
	if _, err := Run(Env{Graph: topology.Star(6), Seed: 1}, Election{}); err == nil {
		t.Fatal("star topology must be rejected for ring protocols")
	}
}

// TestRegistry checks that every registered protocol runs by name on a
// plain default environment — the property that lets Sweep and the CLIs
// drive any (protocol × env) pair with zero adapter code.
func TestRegistry(t *testing.T) {
	names := Protocols()
	want := []string{
		"ben-or", "chang-roberts", "clock-sync", "election", "itai-rodeh-async",
		"itai-rodeh-sync", "live-election", "peterson", "synchronized-election",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry = %v, want %v", names, want)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			p, ok := ProtocolByName(name)
			if !ok {
				t.Fatalf("ProtocolByName(%q) missing", name)
			}
			if p.Name() != name {
				t.Fatalf("registered under %q but Name() = %q", name, p.Name())
			}
			rep, err := Run(Env{N: 6, Seed: 42}, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Protocol != name {
				t.Fatalf("report protocol = %q, want %q", rep.Protocol, name)
			}
			if rep.Messages == 0 {
				t.Fatalf("%s: no messages recorded", name)
			}
			m := rep.Metrics()
			if _, ok := m["messages"]; !ok {
				t.Fatalf("%s: metrics missing 'messages': %v", name, m)
			}
		})
	}
	if _, ok := ProtocolByName("no-such-protocol"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

// TestClockSyncThroughEnv reproduces the ABD-vs-ABE contrast through the
// unified API: bounded delays keep rounds intact, ABE delays break them.
func TestClockSyncThroughEnv(t *testing.T) {
	abd, err := Run(Env{N: 6, Delay: dist.NewUniform(0, 1), Seed: 4},
		ClockSync{Period: 1.1, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if x := abd.Extra.(ClockSyncExtra); x.RoundViolations != 0 {
		t.Fatalf("ABD run violated rounds: %+v", x)
	}
	abe, err := Run(Env{N: 6, Delay: dist.NewExponential(0.5), Seed: 4},
		ClockSync{Period: 1.1, Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if x := abe.Extra.(ClockSyncExtra); x.RoundViolations == 0 {
		t.Fatal("ABE run produced no violations")
	}
}

// TestSynchronizedRequiresMakeNode pins the one unregistrable protocol's
// error path.
func TestSynchronizedRequiresMakeNode(t *testing.T) {
	if _, err := Run(Env{N: 4, Seed: 1}, Synchronized{}); err == nil {
		t.Fatal("Synchronized without MakeNode must error")
	}
}

// TestEnvValidation covers the size/graph consistency rules.
func TestEnvValidation(t *testing.T) {
	if _, err := Run(Env{}, Election{}); err == nil {
		t.Fatal("empty env must error")
	}
	if _, err := Run(Env{N: 1}, Election{}); err == nil {
		t.Fatal("N = 1 must error")
	}
	if _, err := Run(Env{N: 5, Graph: topology.Ring(6)}, Election{}); err == nil {
		t.Fatal("N/graph size disagreement must error")
	}
	if _, err := Run(Env{N: 6, Seed: 1}, nil); err == nil {
		t.Fatal("nil protocol must error")
	}
}

// TestElectionDefaultA0RejectsZeroMeanDelay pins that an underivable
// default A0 is an error, not a panic (Deterministic(0) is a legal
// distribution).
func TestElectionDefaultA0RejectsZeroMeanDelay(t *testing.T) {
	if _, err := Run(Env{N: 8, Delay: dist.NewDeterministic(0)}, Election{}); err == nil {
		t.Fatal("zero-mean delay with defaulted A0 must error")
	}
	// An explicit A0 keeps the environment usable.
	rep, err := Run(Env{N: 8, Delay: dist.NewDeterministic(0)}, Election{A0: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireElected(rep); err != nil {
		t.Fatal(err)
	}
}

// TestEnvDeltaDrivesDefaults pins that a declared δ parameterises the
// balanced defaults when a link factory hides the delay mean.
func TestEnvDeltaDrivesDefaults(t *testing.T) {
	// ARQ with p = 0.2, slot 1 has true mean 5; declaring Delta = 5 must
	// give the same default A0 as an explicit A0ForRing(n, 5, 1, 1).
	declared, err := Run(
		Env{N: 16, Links: channel.ARQFactory(0.2, 1), Delta: 5, Seed: 9},
		Election{},
	)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(
		Env{N: 16, Links: channel.ARQFactory(0.2, 1), Seed: 9},
		Election{A0: core.A0ForRing(16, 5, 1, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if declared.Messages != explicit.Messages || declared.Time != explicit.Time {
		t.Fatalf("Delta-derived default diverged from explicit A0:\n declared: %+v\n explicit: %+v", declared, explicit)
	}
}

// TestClockSyncHonoursMaxRounds pins that the environment's round budget
// caps the clock-sync workload like every other round-based protocol.
func TestClockSyncHonoursMaxRounds(t *testing.T) {
	rep, err := Run(Env{N: 4, MaxRounds: 7, Seed: 2}, ClockSync{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 7 {
		t.Fatalf("rounds = %d, want the MaxRounds cap 7", rep.Rounds)
	}
}
