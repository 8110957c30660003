package core_test

import (
	"testing"

	"abenet/internal/core"
	"abenet/internal/faults"
	"abenet/internal/runner"
	"abenet/internal/simtime"
)

// TestChurnPreservesRetiredIncarnationCounters pins that measurements
// recorded by a node incarnation that later crashed and restarted are not
// lost from the result: a run whose nodes all crash at t=100 and restart
// must report at least the activations its t=100 prefix had already
// accumulated (the prefix is seed-identical to a run that simply stops at
// t=100, where the pre-crash incarnations are still in place).
func TestChurnPreservesRetiredIncarnationCounters(t *testing.T) {
	proto := runner.Election{A0: core.DefaultA0(4), KeepRunning: true}
	before, err := runElection(runner.Env{N: 4, Seed: 6, Horizon: simtime.Time(100)}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if before.Activations < 1 || !before.Elected {
		t.Fatalf("prefix run should have elected by t=100: %+v", before)
	}

	churned := runner.Env{N: 4, Seed: 6, Horizon: simtime.Time(250)}
	churned.Faults = &faults.Plan{Events: []faults.Event{
		faults.CrashAt(100, 0), faults.CrashAt(100, 1),
		faults.CrashAt(100, 2), faults.CrashAt(100, 3),
		faults.RecoverAt(101, 0), faults.RecoverAt(101, 1),
		faults.RecoverAt(101, 2), faults.RecoverAt(101, 3),
	}}
	after, err := runElection(churned, proto)
	if err != nil {
		t.Fatal(err)
	}
	// The mass restart wiped every live node's counters; only the retired
	// accumulation can carry the prefix's activations into the result.
	if after.Activations < before.Activations {
		t.Fatalf("activations %d < the %d accumulated before the mass crash: retired incarnations were dropped",
			after.Activations, before.Activations)
	}
	if after.Faults == nil || after.Faults.Crashes != 4 || after.Faults.Recoveries != 4 {
		t.Fatalf("telemetry = %+v, want 4 crashes and 4 recoveries", after.Faults)
	}
	if len(after.Violations) != 0 {
		t.Fatalf("violations under clean churn: %v", after.Violations)
	}
}
