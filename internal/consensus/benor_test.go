package consensus

import (
	"strings"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/rng"
	"abenet/internal/topology"
)

// TestConsensusRejectsBadConfigs pins the constructor errors.
func TestConsensusRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		graph     *topology.Graph
		f, rounds int
		want      string
	}{
		{"nil graph", nil, 0, 0, "needs a graph"},
		{"ring topology", topology.Ring(8), 0, 0, "complete topology"},
		{"f too large", topology.Complete(8), 3, 0, "3f < n"},
		{"negative f", topology.Complete(8), -1, 0, "3f < n"},
		{"negative rounds", topology.Complete(4), 0, -1, "must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewInstance(tc.graph, tc.f, InitRandom, CoinLocal, tc.rounds, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewInstance = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCorruptibleMsg pins the forgery surface: a corrupted message keeps
// phase and round (so it still parses) and claims a bit value.
func TestCorruptibleMsg(t *testing.T) {
	m := Msg{Phase: 2, Round: 7, Value: Unknown}
	var c any = m
	if _, ok := c.(byzantine.Corruptible); !ok {
		t.Fatal("Msg must implement byzantine.Corruptible")
	}
	forged := m.Corrupt(rng.New(42)).(Msg)
	if forged.Phase != 2 || forged.Round != 7 {
		t.Fatalf("forgery changed the envelope: %+v", forged)
	}
	if forged.Value != 0 && forged.Value != 1 {
		t.Fatalf("forged value %d, want a bit", forged.Value)
	}
	if m.Value != Unknown {
		t.Fatal("Corrupt mutated the original message")
	}
}

// TestCommonCoinFlipAllocatesNothing pins the common coin at zero
// allocations per flip and at the bit rng.DeriveIndexed gives for (coin
// seed, round): the round's source is taken by value, not on the heap.
func TestCommonCoinFlipAllocatesNothing(t *testing.T) {
	nd := &node{coin: CoinCommon, coinSeed: 0x5eed, round: 7}
	want := int8(rng.New(nd.coinSeed).DeriveIndexed("round", 7).Uint64() & 1)
	if got := nd.coinFlip(nil); got != want {
		t.Fatalf("common coin for round 7 = %d, want %d", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { nd.coinFlip(nil) }); avg != 0 {
		t.Errorf("a common-coin flip allocates %g objects, want 0", avg)
	}
}
