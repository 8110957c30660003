package runner

import (
	"errors"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/faults"
	"abenet/internal/probe"
	"abenet/internal/sim"
	"abenet/internal/syncnet"
	"abenet/internal/trace"
)

// silentSyncNode is a synchronous protocol that never sends.
type silentSyncNode struct{}

func (silentSyncNode) Round(syncnet.NodeContext, int, []syncnet.Message) {}

// foreignProtocol is a protocol defined the way an outside package would
// define one: it declares no capabilities.
type foreignProtocol struct{ ran *bool }

func (foreignProtocol) Name() string { return "foreign" }

func (p foreignProtocol) Run(Env) (Report, error) {
	*p.ran = true
	return Report{}, nil
}

// TestCapabilitiesFailClosed pins that an environment axis is rejected,
// with its typed sentinel and before the protocol runs, for every protocol
// that does not declare it — unregistered ones included (Synchronized
// asked for a trace used to return an empty one).
func TestCapabilitiesFailClosed(t *testing.T) {
	axes := []struct {
		name string
		env  Env
		want error
	}{
		{"faults", Env{N: 4, Faults: &faults.Plan{Loss: 0.1}}, ErrFaultsUnsupported},
		{"byzantine", Env{N: 4, Byzantine: byzantine.Equivocators(1)}, ErrByzantineUnsupported},
		{"broadcast", Env{N: 4, LocalBroadcast: true}, ErrBroadcastUnsupported},
		{"observe", Env{N: 4, Observe: &probe.Config{EveryEvents: 1}}, ErrObserveUnsupported},
		{"trace", Env{N: 4, Trace: &trace.Config{}}, ErrTraceUnsupported},
	}
	for _, ax := range axes {
		t.Run(ax.name+"/synchronized", func(t *testing.T) {
			ran := false
			_, err := Run(ax.env, Synchronized{MakeNode: func(int) syncnet.Node {
				ran = true
				return silentSyncNode{}
			}})
			if !errors.Is(err, ax.want) || ran {
				t.Fatalf("Run = %v (protocol ran: %v), want %v before running", err, ran, ax.want)
			}
		})
		t.Run(ax.name+"/foreign", func(t *testing.T) {
			ran := false
			_, err := Run(ax.env, foreignProtocol{ran: &ran})
			if !errors.Is(err, ax.want) || ran {
				t.Fatalf("Run = %v (protocol ran: %v), want %v before running", err, ran, ax.want)
			}
		})
	}
}

// TestSynchronizerProtocolsHonourRunBounds pins that clock-sync and the
// synchronized election run inside the environment's event budget and
// horizon like every other event-driven protocol, and report their kernel
// events.
func TestSynchronizerProtocolsHonourRunBounds(t *testing.T) {
	for _, p := range []Protocol{ClockSync{}, SynchronizedElection{}} {
		t.Run(p.Name(), func(t *testing.T) {
			if _, err := Run(Env{N: 4, MaxEvents: 3}, p); !errors.Is(err, sim.ErrMaxEvents) {
				t.Fatalf("MaxEvents 3: Run = %v, want ErrMaxEvents", err)
			}
			rep, err := Run(Env{N: 4, Horizon: 1}, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Time > 1 {
				t.Fatalf("Horizon 1: run ended at t = %g", rep.Time)
			}
			rep, err = Run(Env{N: 4}, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Events == 0 {
				t.Fatalf("Events = 0 for a run of %d messages", rep.Messages)
			}
		})
	}
}
