package synchronizer_test

import (
	"testing"

	"abenet/internal/rng"
	"abenet/internal/runner"
	"abenet/internal/synchronizer"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

func runGamma(t *testing.T, g *topology.Graph, radius, limit int, seed uint64) (syncRun, []*counterProto) {
	t.Helper()
	protos := make([]*counterProto, g.N())
	res, err := run(runner.Env{Graph: g, Seed: seed}, runner.Synchronized{Kind: synchronizer.KindGamma, ClusterRadius: radius}, func(i int) syncnet.Node {
		protos[i] = &counterProto{limit: limit}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, protos
}

func TestGammaPreservesSynchronousSemantics(t *testing.T) {
	for _, radius := range []int{1, 2, 4} {
		res, protos := runGamma(t, topology.BiRing(9), radius, 8, 1)
		if !res.Stopped {
			t.Fatalf("radius %d: run did not stop: %+v", radius, res)
		}
		for i, p := range protos {
			if len(p.inboxes) < 6 {
				t.Fatalf("radius %d: node %d ran only %d rounds", radius, i, len(p.inboxes))
			}
			for r := 1; r < len(p.inboxes); r++ {
				inbox := p.inboxes[r]
				if len(inbox) != 2 {
					t.Fatalf("radius %d: node %d round %d inbox size %d, want 2", radius, i, r, len(inbox))
				}
				for _, m := range inbox {
					v, ok := m.Payload.(int)
					if !ok || v != r-1 {
						t.Fatalf("radius %d: node %d round %d payload %v, want %d", radius, i, r, m.Payload, r-1)
					}
				}
			}
		}
	}
}

func TestGammaOnVariousTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring12":   topology.BiRing(12),
		"complete7":  topology.Complete(7),
		"hypercube4": topology.Hypercube(4),
		"torus3x4":   topology.Torus(3, 4),
		"star9":      topology.Star(9),
	}
	for name, g := range graphs {
		res, _ := runGamma(t, g, 2, 10, 2)
		if !res.Stopped {
			t.Fatalf("%s: did not stop: %+v", name, res)
		}
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s: %.2f msgs/round < n = %d — Theorem 1 bound broken",
				name, res.MessagesPerRound, g.N())
		}
	}
}

func TestGammaOnRandomGraphs(t *testing.T) {
	root := rng.New(17)
	for trial := 0; trial < 8; trial++ {
		n := 4 + root.Intn(20)
		g := topology.RandomConnected(n, 0.2, root.Derive("g"))
		res, _ := runGamma(t, g, 1+root.Intn(3), 8, uint64(trial))
		if !res.Stopped {
			t.Fatalf("trial %d (n=%d): did not stop: %+v", trial, n, res)
		}
	}
}

func TestGammaLargeRadiusReducesToBeta(t *testing.T) {
	// With radius >= diameter there is a single cluster: γ's cost should
	// equal β's exactly for the same workload.
	g := topology.BiRing(8)
	gammaRes, _ := runGamma(t, g, 10, 20, 3)
	betaRes, _ := runCounter(t, synchronizer.KindBeta, g, 20, 3)
	if gammaRes.MessagesPerRound != betaRes.MessagesPerRound {
		t.Fatalf("single-cluster γ (%.2f/round) differs from β (%.2f/round)",
			gammaRes.MessagesPerRound, betaRes.MessagesPerRound)
	}
}

func TestGammaInterpolatesBetweenAlphaAndBeta(t *testing.T) {
	// γ pays per tree edge and per adjacent cluster pair instead of α's
	// per-edge safe broadcast, so it wins where the graph is dense. Build
	// two 8-cliques joined by a bridge: radius-1 clustering yields two
	// clusters, and γ must land between β (single global tree) and α
	// (3 messages per edge).
	g := topology.New(16)
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			g.AddBiEdge(a, b)
			g.AddBiEdge(a+8, b+8)
		}
	}
	g.AddBiEdge(0, 8)
	alphaRes, _ := runCounter(t, synchronizer.KindAlpha, g, 12, 4)
	betaRes, _ := runCounter(t, synchronizer.KindBeta, g, 12, 4)
	gammaRes, _ := runGamma(t, g, 1, 12, 4)
	if gammaRes.MessagesPerRound >= alphaRes.MessagesPerRound {
		t.Fatalf("γ (%.1f/round) should beat α (%.1f/round) on dense graphs",
			gammaRes.MessagesPerRound, alphaRes.MessagesPerRound)
	}
	if gammaRes.MessagesPerRound < betaRes.MessagesPerRound*0.95 {
		t.Fatalf("γ (%.1f/round) implausibly below β (%.1f/round)",
			gammaRes.MessagesPerRound, betaRes.MessagesPerRound)
	}
}

func TestGammaRejectsUnidirectionalGraphs(t *testing.T) {
	_, err := run(runner.Env{Graph: topology.Ring(4)}, runner.Synchronized{Kind: synchronizer.KindGamma},
		func(int) syncnet.Node { return &counterProto{limit: 2} })
	if err == nil {
		t.Fatal("gamma on a unidirectional ring accepted")
	}
}

func TestGammaBFSOverIt(t *testing.T) {
	g := topology.Hypercube(3)
	_, want := g.BFSTree(0)
	nodes := make([]*syncnet.BFSNode, g.N())
	_, err := run(runner.Env{Graph: g, Seed: 5, MaxRounds: 32}, runner.Synchronized{Kind: synchronizer.KindGamma}, func(i int) syncnet.Node {
		nodes[i] = syncnet.NewBFSNode(i == 0)
		return nodes[i]
	})
	if err == nil {
		t.Fatal("expected round-budget exit for non-terminating protocol")
	}
	for v, node := range nodes {
		if node.Dist != want[v] {
			t.Fatalf("node %d distance %d, want %d", v, node.Dist, want[v])
		}
	}
}
