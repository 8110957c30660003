package consensus_test

import (
	"reflect"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/faults"
	"abenet/internal/runner"
	"abenet/internal/simtime"
)

// config is one consensus scenario: the environment and the Ben-Or options.
type config struct {
	runner.Env
	runner.BenOr
}

// base is the complete graph on n nodes, provisioned for the maximal
// f = floor((n−1)/3).
func base(n int) config {
	return config{Env: runner.Env{N: n, Seed: 1, Horizon: simtime.Time(10_000)}}
}

// consensusRun is one run's outcome: the report with its ConsensusExtra
// verdict promoted alongside the common fields.
type consensusRun struct {
	runner.Report
	runner.ConsensusExtra
}

// run executes cfg through the runner.
func run(cfg config) (consensusRun, error) {
	rep, err := runner.Run(cfg.Env, cfg.BenOr)
	ex, _ := rep.Extra.(runner.ConsensusExtra)
	return consensusRun{rep, ex}, err
}

// TestHonestConsensus: with no adversary every configuration must reach a
// unanimous, valid decision — across media, coins and initial assignments.
func TestHonestConsensus(t *testing.T) {
	for _, n := range []int{4, 8} {
		for _, bcastMode := range []bool{false, true} {
			for _, coin := range []string{"local", "common"} {
				for _, init := range []string{"random", "zeros", "ones", "half"} {
					cfg := base(n)
					cfg.LocalBroadcast = bcastMode
					cfg.Coin = coin
					cfg.Init = init
					res, err := run(cfg)
					if err != nil {
						t.Fatalf("n=%d bcast=%v coin=%s init=%s: %v", n, bcastMode, coin, init, err)
					}
					if !res.Termination || !res.Agreement || !res.Validity {
						t.Fatalf("n=%d bcast=%v coin=%s init=%s: term=%v agree=%v valid=%v (violations %v)",
							n, bcastMode, coin, init, res.Termination, res.Agreement, res.Validity, res.Violations)
					}
					if init == "zeros" && res.Decision != 0 {
						t.Fatalf("unanimous-0 start decided %d", res.Decision)
					}
					if init == "ones" && res.Decision != 1 {
						t.Fatalf("unanimous-1 start decided %d", res.Decision)
					}
					if res.Decided != n || res.Honest != n {
						t.Fatalf("decided %d/%d honest %d", res.Decided, n, res.Honest)
					}
				}
			}
		}
	}
}

// TestConsensusDeterminism: an identical (scenario, seed) must reproduce the
// whole Result, and different seeds must not be accidentally shared.
func TestConsensusDeterminism(t *testing.T) {
	cfg := base(8)
	cfg.Init = "half"
	cfg.Byzantine = byzantine.Equivocators(2)
	a, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestConsensusToleratesEquivocatorsWithinBound: inside the classical
// Ben-Or guarantee region (n > 5f, here n=8 and f=1) one equivocator must
// not break safety, and under bounded expected delay the run terminates —
// on both media. (Pushing e to the f < n/3 edge is experiment E14's job:
// there point-to-point keeps safety but loses termination, which is the
// local-broadcast separation itself, not a unit-test invariant.)
func TestConsensusToleratesEquivocatorsWithinBound(t *testing.T) {
	for _, mode := range []bool{false, true} {
		cfg := base(8)
		cfg.F = 1
		cfg.LocalBroadcast = mode
		cfg.Init = "half"
		cfg.Byzantine = byzantine.Equivocators(1)
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity || !res.Termination {
			t.Fatalf("bcast=%v: term=%v agree=%v valid=%v violations=%v",
				mode, res.Termination, res.Agreement, res.Validity, res.Violations)
		}
		if res.Honest != 7 || res.Decided != 7 {
			t.Fatalf("bcast=%v: honest=%d decided=%d, want 7/7", mode, res.Honest, res.Decided)
		}
		tel := res.Faults.Byzantine
		if tel == nil {
			t.Fatalf("bcast=%v: no byzantine telemetry", mode)
		}
		if mode {
			// The radio medium defeats equivocation: substitutions count
			// as consistent corruptions instead.
			if tel.Equivocations != 0 || tel.Corruptions == 0 {
				t.Fatalf("broadcast telemetry = %+v, want corruptions only", tel)
			}
		} else if tel.Equivocations == 0 {
			t.Fatalf("p2p telemetry = %+v, want equivocations", tel)
		}
	}
}

// TestConsensusSurvivesCrashes: f crashed-from-start nodes are within the
// wait budget, so the survivors still decide.
func TestConsensusSurvivesCrashes(t *testing.T) {
	cfg := base(8) // f = 2
	cfg.Init = "half"
	cfg.MaxRounds = 50
	cfg.Faults = &faults.Plan{Events: []faults.Event{faults.CrashAt(0, 0), faults.CrashAt(0, 1)}}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed nodes are honest but can never decide: termination over
	// all honest nodes fails by definition, while every surviving node
	// must still decide safely.
	if res.Decided != 6 {
		t.Fatalf("decided = %d, want the 6 survivors (violations %v)", res.Decided, res.Violations)
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("agreement=%v validity=%v violations=%v", res.Agreement, res.Validity, res.Violations)
	}
	if res.Termination {
		t.Fatal("termination should be false with permanently crashed honest nodes")
	}
}
