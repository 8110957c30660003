package election_test

import (
	"math"
	"testing"
	"testing/quick"

	"abenet/internal/dist"
	"abenet/internal/election"
	"abenet/internal/runner"
)

func TestPetersonElectsOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 64} {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.Peterson{})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.Elected || res.Leaders != 1 {
				t.Fatalf("n=%d seed=%d: leaders=%d", n, seed, res.Leaders)
			}
		}
	}
}

func TestPetersonProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw)%30
		res, err := runner.Run(runner.Env{N: n, Seed: seed}, runner.Peterson{})
		return err == nil && res.Leaders == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPetersonWorstCaseNLogN(t *testing.T) {
	// Unlike Chang-Roberts, Peterson's worst case is O(n log n): even on
	// the descending arrangement the cost must stay near 2n·log2(n), far
	// below CR's quadratic n(n+1)/2.
	for _, n := range []int{32, 128} {
		res, err := runner.Run(runner.Env{N: n, Delay: dist.NewDeterministic(1), Seed: 1}, runner.Peterson{Arrangement: election.ArrangementDescending})
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * float64(n) * (math.Log2(float64(n)) + 2)
		if float64(res.Messages) > bound {
			t.Fatalf("n=%d: %d messages exceed the 2n(log n + 2) bound %.0f", n, res.Messages, bound)
		}
		quadratic := float64(n) * float64(n) / 4
		if float64(res.Messages) > quadratic {
			t.Fatalf("n=%d: %d messages is quadratic-ish", n, res.Messages)
		}
	}
}

func TestPetersonBeatsChangRobertsWorstCase(t *testing.T) {
	const n = 64
	peterson, err := runner.Run(runner.Env{N: n, Delay: dist.NewDeterministic(1), Seed: 1}, runner.Peterson{Arrangement: election.ArrangementDescending})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := runner.Run(runner.Env{N: n, Delay: dist.NewDeterministic(1), Seed: 1}, runner.ChangRoberts{Arrangement: election.ArrangementDescending})
	if err != nil {
		t.Fatal(err)
	}
	if peterson.Messages*2 >= cr.Messages {
		t.Fatalf("Peterson (%d) should be far below CR's worst case (%d)", peterson.Messages, cr.Messages)
	}
}

func TestPetersonLeaderHoldsMaxTID(t *testing.T) {
	// Determinstic delays, ascending ids: the winner must be unique and
	// stable across repeated runs (the algorithm is deterministic).
	a, err := runner.Run(runner.Env{N: 16, Delay: dist.NewDeterministic(1), Seed: 1}, runner.Peterson{Arrangement: election.ArrangementAscending})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(runner.Env{N: 16, Delay: dist.NewDeterministic(1), Seed: 2}, runner.Peterson{Arrangement: election.ArrangementAscending})
	if err != nil {
		t.Fatal(err)
	}
	if a.LeaderIndex != b.LeaderIndex {
		t.Fatalf("deterministic Peterson elected different nodes: %d vs %d", a.LeaderIndex, b.LeaderIndex)
	}
}

func TestPetersonValidation(t *testing.T) {
	if _, err := runner.Run(runner.Env{N: 1}, runner.Peterson{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := runner.Run(runner.Env{N: 4}, runner.Peterson{Arrangement: 99}); err == nil {
		t.Fatal("bad arrangement accepted")
	}
}

func TestPetersonRandomDelaysStillSafe(t *testing.T) {
	// FIFO links with random delays: reordering between rings segments is
	// still possible in global time, but per-link FIFO is what the
	// algorithm needs.
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runner.Run(runner.Env{N: 24, Delay: dist.NewExponential(1), Seed: seed}, runner.Peterson{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 {
			t.Fatalf("seed %d: leaders=%d", seed, res.Leaders)
		}
	}
}
