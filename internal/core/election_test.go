package core

import (
	"math"
	"testing"
)

func TestA0ForRing(t *testing.T) {
	if got, want := DefaultA0(10), 0.01; math.Abs(got-want) > 1e-12 {
		t.Fatalf("DefaultA0(10) = %v, want %v", got, want)
	}
	// Clamped into (0, 1/2].
	if got := A0ForRing(2, 0.001, 1, 100); got != 0.5 {
		t.Fatalf("clamp failed: %v", got)
	}
	// Scales inversely with delta, proportionally with tick and c.
	base := A0ForRing(32, 1, 1, 1)
	if got := A0ForRing(32, 2, 1, 1); math.Abs(got-base/2) > 1e-15 {
		t.Fatalf("delta scaling wrong: %v vs %v", got, base/2)
	}
	if got := A0ForRing(32, 1, 1, 2); math.Abs(got-2*base) > 1e-15 {
		t.Fatalf("c scaling wrong: %v vs %v", got, 2*base)
	}
	mustPanicCore(t, func() { A0ForRing(1, 1, 1, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 0, 1, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 1, 0, 1) })
	mustPanicCore(t, func() { A0ForRing(4, 1, 1, 0) })
}

func mustPanicCore(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestActivationProbabilityFormula(t *testing.T) {
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := node.ActivationProbability(), 0.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("d=1: p = %v, want %v", got, want)
	}
	node.d = 3
	want := 1 - math.Pow(0.7, 3)
	if got := node.ActivationProbability(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("d=3: p = %v, want %v", got, want)
	}
	node.d = 8
	if got := node.ActivationProbability(); got <= 1-math.Pow(0.7, 3) || got >= 1 {
		t.Fatalf("d=8: p = %v must grow with d but stay below 1", got)
	}
}

func TestActivationProbabilityConstantUnderAblation(t *testing.T) {
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 8, A0: 0.3, ConstantActivation: true})
	if err != nil {
		t.Fatal(err)
	}
	node.d = 5
	if got := node.ActivationProbability(); got != 0.3 {
		t.Fatalf("ablated p = %v, want constant 0.3", got)
	}
}

func TestInitialNodeState(t *testing.T) {
	node, err := NewElectionNode(ElectionNodeConfig{RingSize: 4, A0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if node.State() != Idle {
		t.Fatalf("initial state = %v", node.State())
	}
	if node.D() != 1 {
		t.Fatalf("initial d = %d", node.D())
	}
}

func TestNewElectionNodeValidation(t *testing.T) {
	cases := []ElectionNodeConfig{
		{RingSize: 1, A0: 0.5},
		{RingSize: 4, A0: 0},
		{RingSize: 4, A0: 1},
		{RingSize: 4, A0: -0.5},
		{RingSize: 4, A0: 0.5, TickInterval: -1},
		{RingSize: 4, A0: 0.5, TickInterval: math.Inf(1)},
	}
	for _, cfg := range cases {
		if _, err := NewElectionNode(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Idle: "idle", Active: "active", Passive: "passive", Leader: "leader",
	} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
	if got := State(0).String(); got != "state(0)" {
		t.Fatalf("unknown state string = %q", got)
	}
}
