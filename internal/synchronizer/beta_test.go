package synchronizer_test

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/runner"
	"abenet/internal/synchronizer"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

func TestBetaPreservesSynchronousSemantics(t *testing.T) {
	res, protos := runCounter(t, synchronizer.KindBeta, topology.BiRing(5), 10, 1)
	if !res.Stopped {
		t.Fatalf("run did not stop: %+v", res)
	}
	for i, p := range protos {
		// β releases rounds globally, so all nodes stay within one round
		// of each other.
		if len(p.inboxes) < 9 {
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

func TestBetaOnVariousTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring8":    topology.BiRing(8),
		"complete6":  topology.Complete(6),
		"hypercube3": topology.Hypercube(3),
		"star8":      topology.Star(8),
		"line6":      topology.Line(6),
	}
	for name, g := range graphs {
		res, _ := runCounter(t, synchronizer.KindBeta, g, 12, 2)
		if !res.Stopped {
			t.Fatalf("%s: did not stop: %+v", name, res)
		}
		if res.MessagesPerRound < float64(g.N())-1e-9 {
			t.Errorf("%s: %.2f msgs/round < n = %d — Theorem 1 bound broken",
				name, res.MessagesPerRound, g.N())
		}
	}
}

func TestBetaCheaperThanAlphaOnDenseGraphs(t *testing.T) {
	g := topology.Complete(10) // |E| = 90 directed edges
	alphaRes, _ := runCounter(t, synchronizer.KindAlpha, g, 20, 3)
	betaRes, _ := runCounter(t, synchronizer.KindBeta, g, 20, 3)
	if betaRes.MessagesPerRound >= alphaRes.MessagesPerRound {
		t.Fatalf("beta (%.1f/round) should beat alpha (%.1f/round) on dense graphs",
			betaRes.MessagesPerRound, alphaRes.MessagesPerRound)
	}
}

func TestBetaCostFormula(t *testing.T) {
	// Heartbeat workload on biring(6): per round 12 payload envelopes +
	// 12 acks + 2*(6-1) tree messages = 34.
	g := topology.BiRing(6)
	res, _ := runCounter(t, synchronizer.KindBeta, g, 30, 4)
	want := 34.0
	if res.MessagesPerRound < want*0.9 || res.MessagesPerRound > want*1.15 {
		t.Fatalf("beta msgs/round = %.2f, want about %v", res.MessagesPerRound, want)
	}
}

func TestBetaRejectsUnidirectionalGraphs(t *testing.T) {
	_, err := run(runner.Env{Graph: topology.Ring(4)}, runner.Synchronized{Kind: synchronizer.KindBeta},
		func(int) syncnet.Node { return &counterProto{limit: 2} })
	if err == nil {
		t.Fatal("beta on a unidirectional ring accepted")
	}
}

func TestBetaWithHeavyTailedDelays(t *testing.T) {
	protos := make([]*counterProto, 6)
	res, err := run(runner.Env{Graph: topology.BiRing(6), Links: channel.RandomDelayFactory(dist.ParetoWithMean(1, 1.5)), Seed: 5}, runner.Synchronized{Kind: synchronizer.KindBeta}, func(i int) syncnet.Node {
		protos[i] = &counterProto{limit: 10}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("heavy tails broke beta: %+v", res)
	}
}

func TestBetaSparseProtocolSendsNoEmptyEnvelopes(t *testing.T) {
	// A silent protocol generates zero payloads; β's cost per round must
	// then be exactly the 2(n−1) tree messages, unlike round/α which pay
	// per edge regardless.
	g := topology.Complete(8)
	protos := make([]*silentProto, 8)
	res, err := run(runner.Env{Graph: g, Seed: 6}, runner.Synchronized{Kind: synchronizer.KindBeta}, func(i int) syncnet.Node {
		protos[i] = &silentProto{limit: 20}
		return protos[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * (8 - 1)
	if res.MessagesPerRound < want*0.9 || res.MessagesPerRound > want*1.2 {
		t.Fatalf("silent-beta msgs/round = %.2f, want about %v", res.MessagesPerRound, want)
	}
}

// silentProto never sends; it just counts rounds.
type silentProto struct{ limit, rounds int }

func (p *silentProto) Round(ctx syncnet.NodeContext, round int, _ []syncnet.Message) {
	p.rounds++
	if round >= p.limit {
		ctx.StopNetwork("done")
	}
}
