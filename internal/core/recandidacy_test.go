package core_test

import (
	"fmt"
	"testing"

	"abenet/internal/core"
	"abenet/internal/faults"
	"abenet/internal/runner"
	"abenet/internal/simtime"
)

// healedPartition is the liveness trap documented in examples/lossy since
// PR 3: the ring is cut in half during [0, 60) and then healed. Every token
// dies at the cut, the survivors end up passive, and the paper's algorithm
// has no way back — passive nodes never re-candidate.
func healedPartition() *faults.Plan {
	return &faults.Plan{Events: faults.PartitionDuring(0, 60, 0, 1, 2, 3, 4, 5, 6, 7)}
}

// TestHealedPartitionStaysWedgedWithoutRecandidacy pins the bug's
// observable: with the timeout disabled (the default), the healed ring
// remains leaderless to the horizon.
func TestHealedPartitionStaysWedgedWithoutRecandidacy(t *testing.T) {
	res, err := runElection(runner.Env{N: 16, Seed: 11, Horizon: simtime.Time(2000), Faults: healedPartition()}, runner.Election{A0: core.DefaultA0(16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elected {
		t.Fatalf("healed partition elected a leader without re-candidacy — the wedge this suite documents is gone: %+v", res)
	}
	if res.Recandidacies != 0 {
		t.Fatalf("recandidacies = %d with the timeout disabled", res.Recandidacies)
	}
	if float64(res.Time) != 2000 {
		t.Fatalf("run ended at t=%g, want the full horizon 2000", res.Time)
	}
}

// TestRecandidacyRestoresLivenessAfterHeal is the deterministic regression
// pin for the fix: the identical scenario with an opt-in re-candidacy
// timeout elects exactly one leader, without churn, with the exact
// trajectory below. Like the golden-seed pins, the literals are
// deliberately brittle — any change to the kernel's ordering, the RNG
// layout or the re-candidacy rule shifts them and must be justified.
func TestRecandidacyRestoresLivenessAfterHeal(t *testing.T) {
	run := func() electionRun {
		res, err := runElection(runner.Env{N: 16, Seed: 11, Horizon: simtime.Time(2000), Faults: healedPartition()}, runner.Election{A0: core.DefaultA0(16), RecandidacyTimeout: 150})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Leaders != 1 || !res.Elected {
		t.Fatalf("leaders = %d, want exactly 1", res.Leaders)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Recandidacies == 0 {
		t.Fatal("the election recovered without a single re-candidacy — the test no longer exercises the fix")
	}
	want := struct {
		leader, recand, activations, knockouts int
		messages                               uint64
		time                                   string
	}{leader: 6, recand: 14, activations: 6, knockouts: 2, messages: 35, time: "231.746595"}
	if res.LeaderIndex != want.leader {
		t.Errorf("leader = %d, want %d", res.LeaderIndex, want.leader)
	}
	if res.Recandidacies != want.recand {
		t.Errorf("recandidacies = %d, want %d", res.Recandidacies, want.recand)
	}
	if res.Activations != want.activations {
		t.Errorf("activations = %d, want %d", res.Activations, want.activations)
	}
	if res.Knockouts != want.knockouts {
		t.Errorf("knockouts = %d, want %d", res.Knockouts, want.knockouts)
	}
	if res.Messages != want.messages {
		t.Errorf("messages = %d, want %d", res.Messages, want.messages)
	}
	if ts := fmt.Sprintf("%.9g", res.Time); ts != want.time {
		t.Errorf("time = %s, want %s", ts, want.time)
	}

	// Determinism: the fix must not cost reproducibility.
	again := run()
	if again.LeaderIndex != res.LeaderIndex || again.Time != res.Time ||
		again.Messages != res.Messages || again.Recandidacies != res.Recandidacies {
		t.Fatalf("replay diverged: %+v vs %+v", again, res)
	}
}

// TestRecandidacySafetyUnderKeepRunning runs the healed-partition scenario
// with stop-on-leader disabled across seeds: re-candidacy may keep cycling
// after the election, but it must never mint a second leader (the old
// leader purges every later token) and never trip an invariant.
func TestRecandidacySafetyUnderKeepRunning(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		res, err := runElection(runner.Env{N: 16, Seed: seed, Horizon: simtime.Time(5000), Faults: healedPartition()}, runner.Election{A0: core.DefaultA0(16), KeepRunning: true, RecandidacyTimeout: 150})
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders > 1 {
			t.Fatalf("seed %d: %d leaders", seed, res.Leaders)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations %v", seed, res.Violations)
		}
	}
}

// TestRecandidacyDisabledIsByteIdentical pins that a zero timeout is not
// merely "mostly the same" but the exact unmodified algorithm: the golden
// seed-42 n=16 trajectory from TestGoldenSeeds, reproduced through a config
// that spells the zero explicitly.
func TestRecandidacyDisabledIsByteIdentical(t *testing.T) {
	res, err := runElection(runner.Env{N: 16, Seed: 42}, runner.Election{A0: core.DefaultA0(16), RecandidacyTimeout: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderIndex != 6 || res.Messages != 16 || res.Activations != 1 || res.Knockouts != 0 {
		t.Fatalf("zero-timeout trajectory drifted from the golden pin: %+v", res)
	}
	if ts := fmt.Sprintf("%.9g", res.Time); ts != "55.7411288" {
		t.Fatalf("time = %s, want the golden 55.7411288", ts)
	}
}

// TestRecandidacyConfigValidation rejects non-finite and negative timeouts.
func TestRecandidacyConfigValidation(t *testing.T) {
	if _, err := core.NewElectionNode(core.ElectionNodeConfig{
		RingSize: 4, A0: 0.1, RecandidacyTimeout: -1,
	}); err == nil {
		t.Fatal("negative re-candidacy timeout accepted")
	}
}
