package core_test

import (
	"testing"
	"testing/quick"

	"abenet/internal/clock"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/runner"
)

// electionRun is one election's outcome: the report with its
// ElectionExtra counters promoted alongside the common fields.
type electionRun struct {
	runner.Report
	runner.ElectionExtra
}

// runElection runs the paper's election on env with options p through the
// runner, the library's single entry point.
func runElection(env runner.Env, p runner.Election) (electionRun, error) {
	rep, err := runner.Run(env, p)
	ex, _ := rep.Extra.(runner.ElectionExtra)
	return electionRun{rep, ex}, err
}

func TestElectionElectsExactlyOneLeader(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 32} {
		for seed := uint64(0); seed < 20; seed++ {
			res, err := runElection(runner.Env{N: n, Seed: seed}, runner.Election{A0: 0.3})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !res.Elected {
				t.Fatalf("n=%d seed=%d: no leader", n, seed)
			}
			if res.Leaders != 1 {
				t.Fatalf("n=%d seed=%d: %d leaders", n, seed, res.Leaders)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("n=%d seed=%d: violations %v", n, seed, res.Violations)
			}
			if res.LeaderIndex < 0 || res.LeaderIndex >= n {
				t.Fatalf("n=%d seed=%d: leader index %d", n, seed, res.LeaderIndex)
			}
		}
	}
}

func TestElectionSafetyWithKeepRunning(t *testing.T) {
	// Keep simulating long after the election: the leader count must stay
	// at one and residual messages must drain without violations.
	for seed := uint64(0); seed < 30; seed++ {
		res, err := runElection(runner.Env{N: 6, Seed: seed, Horizon: 2000}, runner.Election{A0: 0.4, KeepRunning: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Leaders > 1 {
			t.Fatalf("seed %d: %d leaders — safety violated", seed, res.Leaders)
		}
		if res.Leaders == 0 {
			t.Fatalf("seed %d: no leader after 2000 time units (mean election is ~n/A0)", seed)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations %v", seed, res.Violations)
		}
	}
}

func TestElectionLeaderUniquenessProperty(t *testing.T) {
	// Property over arbitrary seeds and sizes.
	f := func(seed uint64, nRaw uint8, a0Raw uint8) bool {
		n := 2 + int(nRaw)%14
		a0 := 0.05 + 0.9*float64(a0Raw)/255
		res, err := runElection(runner.Env{N: n, Seed: seed}, runner.Election{A0: a0})
		if err != nil {
			return false
		}
		return res.Elected && res.Leaders == 1 && len(res.Violations) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestElectionDeterministicReplay(t *testing.T) {
	run := func() electionRun {
		res, err := runElection(runner.Env{N: 10, Seed: 99}, runner.Election{A0: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.Time != b.Time || a.LeaderIndex != b.LeaderIndex {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestElectionWorksAcrossDelayDistributions(t *testing.T) {
	// E10 core behaviour: any delay shape with mean 1 elects a leader.
	delays := []dist.Dist{
		dist.NewDeterministic(1),
		dist.NewUniform(0, 2),
		dist.NewExponential(1),
		dist.ParetoWithMean(1, 2.5),
		dist.NewRetransmission(0.5, 0.5), // mean 1
		dist.NewErlang(4, 1),
	}
	for _, d := range delays {
		for seed := uint64(0); seed < 5; seed++ {
			res, err := runElection(runner.Env{N: 8, Delay: d, Seed: seed}, runner.Election{A0: 0.3})
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if res.Leaders != 1 || len(res.Violations) != 0 {
				t.Fatalf("%s seed %d: leaders=%d violations=%v", d.Name(), seed, res.Leaders, res.Violations)
			}
		}
	}
}

func TestElectionWithDriftingClocks(t *testing.T) {
	// E11 core behaviour: clock drift within [s_low, s_high] never breaks
	// correctness.
	models := []clock.Model{
		clock.NewUniformFixedModel(0.5, 2),
		clock.NewWanderingModel(0.25, 4, 1),
	}
	for _, m := range models {
		for seed := uint64(0); seed < 10; seed++ {
			res, err := runElection(runner.Env{N: 8, Clocks: m, Seed: seed}, runner.Election{A0: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Leaders != 1 || len(res.Violations) != 0 {
				t.Fatalf("%T seed %d: leaders=%d violations=%v", m, seed, res.Leaders, res.Violations)
			}
		}
	}
}

func TestElectionWithProcessingDelay(t *testing.T) {
	// E12 core behaviour: γ > 0 never breaks correctness.
	res, err := runElection(runner.Env{N: 8, Processing: dist.NewExponential(0.2), Seed: 1}, runner.Election{A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaders != 1 || len(res.Violations) != 0 {
		t.Fatalf("leaders=%d violations=%v", res.Leaders, res.Violations)
	}
	if res.Params.Gamma != 0.2 {
		t.Fatalf("γ = %v, want 0.2", res.Params.Gamma)
	}
}

func TestConstantActivationAblationStillCorrect(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runElection(runner.Env{N: 8, Seed: seed}, runner.Election{A0: 0.3, ConstantActivation: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaders != 1 || len(res.Violations) != 0 {
			t.Fatalf("seed %d: leaders=%d violations=%v", seed, res.Leaders, res.Violations)
		}
	}
}

func TestMessageComplexityScalesLinearly(t *testing.T) {
	// Smoke-level check of the headline claim (the full sweep is E3), with
	// the A0ForRing parameter choice that realises the paper's linear
	// bounds: mean messages and mean time from n=16 to n=128 must grow
	// about 8x (linear), not 64x (quadratic).
	mean := func(n int) (msgs, elapsed float64) {
		const runs = 60
		for seed := uint64(0); seed < runs; seed++ {
			res, err := runElection(runner.Env{N: n, Seed: seed}, runner.Election{A0: core.DefaultA0(n)})
			if err != nil {
				t.Fatal(err)
			}
			msgs += float64(res.Messages)
			elapsed += res.Time
		}
		return msgs / runs, elapsed / runs
	}
	m16, t16 := mean(16)
	m128, t128 := mean(128)
	if ratio := m128 / m16; ratio > 16 {
		t.Fatalf("messages grew %.1fx from n=16 to n=128 (m16=%.1f m128=%.1f); not linear", ratio, m16, m128)
	}
	if ratio := t128 / t16; ratio > 16 {
		t.Fatalf("time grew %.1fx from n=16 to n=128 (t16=%.1f t128=%.1f); not linear", ratio, t16, t128)
	}
}

func TestRunElectionValidation(t *testing.T) {
	if _, err := runElection(runner.Env{N: 1}, runner.Election{A0: 0.3}); err == nil {
		t.Fatal("n=1 accepted")
	}
	// A0 = 0 selects the balanced default; an A0 outside (0, 1) is an
	// error, not a silent default.
	if _, err := runElection(runner.Env{N: 4}, runner.Election{A0: 1}); err == nil {
		t.Fatal("A0=1 accepted")
	}
	if _, err := runElection(runner.Env{N: 4}, runner.Election{A0: 0.3, KeepRunning: true}); err == nil {
		t.Fatal("KeepRunning without horizon accepted")
	}
}

func TestLeaderIsMessageOriginatorStatisticsSane(t *testing.T) {
	// Activations create messages; relays conserve them; purges plus the
	// winning message plus in-flight must balance. We check a weaker but
	// exact accounting identity: messages = activations + relays.
	res, err := runElection(runner.Env{N: 16, Seed: 5}, runner.Election{A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Messages, uint64(res.Activations+res.Knockouts+res.ResidualPurges); got < want {
		// Every activation and every relay is a send; every purge consumed
		// a distinct message, so sends >= purges + the winner's message.
		t.Fatalf("accounting broken: %d messages < %d purged", got, want)
	}
	if res.Activations == 0 {
		t.Fatal("leader elected without any activation")
	}
}
