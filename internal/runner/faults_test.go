package runner

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/simtime"
	"abenet/internal/syncnet"
	"abenet/internal/topology"
)

// TestEnvValidateErrorPaths covers each structured validation error.
func TestEnvValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		env  Env
		want error
	}{
		{"empty", Env{}, ErrEnvSize},
		{"n=1", Env{N: 1}, ErrEnvSize},
		{"n/graph mismatch", Env{N: 5, Graph: topology.Ring(6)}, ErrEnvSize},
		{"negative delta", Env{N: 4, Delta: -1}, ErrEnvDelta},
		{"links+delay without delta", Env{
			N:     4,
			Delay: dist.NewExponential(1),
			Links: channel.FIFOFactory(dist.NewExponential(1)),
		}, ErrEnvAmbiguousDelay},
		{"broken fault plan", Env{
			N:      4,
			Faults: &faults.Plan{Loss: 2},
		}, ErrEnvFaults},
		{"fault event outside graph", Env{
			N:      4,
			Faults: &faults.Plan{Events: []faults.Event{faults.CrashAt(1, 7)}},
		}, ErrEnvFaults},
		{"link event on absent edge", Env{
			// The unidirectional Ring(4) has 1->2 but not the reverse.
			N:      4,
			Faults: &faults.Plan{Events: []faults.Event{faults.LinkDownAt(1, 2, 1)}},
		}, ErrEnvFaults},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.env.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", c.env)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %q is not %q", err, c.want)
			}
			// Run must reject the same environment identically.
			if _, runErr := Run(c.env, Election{}); runErr == nil || !errors.Is(runErr, c.want) {
				t.Fatalf("Run error %q is not %q", runErr, c.want)
			}
		})
	}
}

// TestEnvValidateAcceptsResolvedAmbiguity pins the escape hatch: Links and
// Delay may coexist once Delta declares the governing δ.
func TestEnvValidateAcceptsResolvedAmbiguity(t *testing.T) {
	env := Env{
		N:     4,
		Delay: dist.NewExponential(1),
		Links: channel.ARQFactory(0.5, 1),
		Delta: 2,
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireElected(rep); err != nil {
		t.Fatal(err)
	}
}

// TestElectionUnderLossThroughEnv drives the tentpole end to end: a lossy
// plan on the unified runner yields fault telemetry on the report, and the
// run stays deterministic.
func TestElectionUnderLossThroughEnv(t *testing.T) {
	env := Env{
		N:       16,
		Seed:    5,
		Horizon: simtime.Time(5000),
		Faults:  &faults.Plan{Loss: 0.1, Duplicate: 0.05},
	}
	first, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults == nil {
		t.Fatal("no fault telemetry on the report")
	}
	if first.Faults.MessagesDropped == 0 {
		t.Fatal("10% loss dropped nothing")
	}
	m := first.Metrics()
	for _, key := range []string{"fault_dropped", "fault_duplicated", "fault_crashes", "elected"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	second, err := Run(env, Election{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault-injected run not deterministic:\n a: %+v\n b: %+v", first, second)
	}
}

// TestFaultPlansOnAsyncRingProtocols smoke-tests every fault-capable
// protocol on ring and hypercube, each under a plan its channel
// assumptions tolerate: the election and Chang–Roberts accept arbitrary
// loss/reorder/outage mixes; Itai–Rodeh async requires per-link FIFO, so
// it gets the order-preserving axes (loss, duplication) only.
func TestFaultPlansOnAsyncRingProtocols(t *testing.T) {
	mixed := &faults.Plan{Loss: 0.05, Reorder: 0.1, Events: []faults.Event{
		faults.LinkDownAt(3, 0, 1), faults.LinkUpAt(6, 0, 1),
	}}
	fifoSafe := &faults.Plan{Loss: 0.05, Duplicate: 0.05}
	cases := []struct {
		proto Protocol
		plan  *faults.Plan
	}{
		{Election{}, mixed},
		{ChangRoberts{}, mixed},
		{ItaiRodehAsync{}, fifoSafe},
	}
	graphs := map[string]*topology.Graph{"ring": nil, "hypercube": topology.Hypercube(3)}
	for _, c := range cases {
		for gname, g := range graphs {
			t.Run(fmt.Sprintf("%s/%s", c.proto.Name(), gname), func(t *testing.T) {
				env := Env{Graph: g, Seed: 17, Horizon: simtime.Time(20000), Faults: c.plan}
				if g == nil {
					env.N = 8
				}
				rep, err := Run(env, c.proto)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Faults == nil {
					t.Fatal("no telemetry")
				}
				if rep.Leaders > 1 {
					// Loss can break termination but these small runs
					// should not mint extra leaders; if one ever does,
					// that is a finding worth looking at, not a flake.
					t.Fatalf("%d leaders under loss", rep.Leaders)
				}
			})
		}
	}
}

// TestFaultsRejectedByUnsupportingProtocols pins the explicit contract: a
// protocol without a fault-capable engine refuses to pretend.
func TestFaultsRejectedByUnsupportingProtocols(t *testing.T) {
	plan := &faults.Plan{Loss: 0.1}
	unsupported := []Protocol{
		ItaiRodehSync{},
		SynchronizedElection{},
		ClockSync{},
		LiveElection{},
		Peterson{}, // reliable-FIFO step protocol: every fault axis breaks it
		Synchronized{MakeNode: func(int) syncnet.Node { return silentSyncNode{} }},
	}
	for _, p := range unsupported {
		t.Run(p.Name(), func(t *testing.T) {
			_, err := Run(Env{N: 4, Seed: 1, Faults: plan}, p)
			if !errors.Is(err, ErrFaultsUnsupported) {
				t.Fatalf("%s: Run = %v, want ErrFaultsUnsupported", p.Name(), err)
			}
		})
	}
}
