package runner

import (
	"fmt"
	"reflect"
	"sort"
)

// registry maps protocol names to runnable default instances. Every entry
// must be runnable on a default environment (Env{N: n, Seed: s}) with its
// zero-value options — that is what lets tools sweep protocols by name
// with no per-protocol adapter code.
var registry = map[string]Protocol{}

// RegisterProtocol adds a protocol's default instance to the registry. It
// panics on duplicate names: the registry is assembled at init time and a
// clash is a programming error.
func RegisterProtocol(p Protocol) {
	name := p.Name()
	if _, dup := registry[name]; dup {
		panic("runner: duplicate protocol name " + name)
	}
	registry[name] = p
}

func init() {
	RegisterProtocol(Election{})
	RegisterProtocol(ItaiRodehSync{})
	RegisterProtocol(ItaiRodehAsync{})
	RegisterProtocol(ChangRoberts{})
	RegisterProtocol(Peterson{})
	RegisterProtocol(SynchronizedElection{})
	RegisterProtocol(ClockSync{})
	RegisterProtocol(LiveElection{})
	RegisterProtocol(BenOr{})
	// Synchronized is deliberately unregistered: it needs a MakeNode
	// constructor, so it has no runnable default.
}

// Protocols returns the sorted names of every registered protocol.
func Protocols() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ProtocolByName returns the registered protocol's default instance.
func ProtocolByName(name string) (Protocol, bool) {
	p, ok := registry[name]
	return p, ok
}

// capability is a set of environment axes a protocol honours.
type capability uint8

// The environment axes Run checks against a protocol's capabilities.
const (
	capFaults capability = 1 << iota
	capByzantine
	capBroadcast
	capObserve
	capTrace
)

// capable is implemented by the protocols that honour some environment
// axis. The method is unexported, so a protocol defined outside this
// package — like any protocol that declares nothing — honours no axis, and
// Run fails closed for it instead of silently ignoring the request.
type capable interface {
	capabilities() capability
}

// capabilitiesOf returns the axes p honours.
func capabilitiesOf(p Protocol) capability {
	if c, ok := p.(capable); ok {
		return c.capabilities()
	}
	return 0
}

// The capabilities of the protocols that honour some axis. Every event-
// driven election and consensus engine records a probe series and a causal
// trace; the fault axes exclude Peterson, whose step protocol hard-fails
// (by design) on the message gaps and overtakes every fault axis produces.
func (Election) capabilities() capability       { return capFaults | capObserve | capTrace }
func (ChangRoberts) capabilities() capability   { return capFaults | capObserve | capTrace }
func (ItaiRodehAsync) capabilities() capability { return capFaults | capObserve | capTrace }
func (Peterson) capabilities() capability       { return capObserve | capTrace }
func (BenOr) capabilities() capability {
	return capFaults | capByzantine | capBroadcast | capObserve | capTrace
}

// axes describes each capability-checked environment axis: whether env
// sets it, the typed rejection, and the Env field named in the message.
var axes = []struct {
	bit   capability
	set   func(Env) bool
	err   error
	field string
}{
	{capFaults, func(e Env) bool { return e.Faults != nil }, ErrFaultsUnsupported, "Faults"},
	{capByzantine, func(e Env) bool { return e.Byzantine != nil }, ErrByzantineUnsupported, "Byzantine"},
	{capBroadcast, func(e Env) bool { return e.LocalBroadcast }, ErrBroadcastUnsupported, "LocalBroadcast"},
	{capObserve, func(e Env) bool { return e.Observe != nil }, ErrObserveUnsupported, "Observe"},
	{capTrace, func(e Env) bool { return e.Trace != nil }, ErrTraceUnsupported, "Trace"},
}

// CheckCapabilities returns the typed rejection (ErrFaultsUnsupported,
// ErrByzantineUnsupported, ErrBroadcastUnsupported, ErrObserveUnsupported
// or ErrTraceUnsupported) for the first axis env sets that p does not
// honour, or nil. Run calls it; decoders call it to reject a scenario that
// could never run.
func CheckCapabilities(env Env, p Protocol) error {
	have := capabilitiesOf(p)
	for _, ax := range axes {
		if !ax.set(env) || have&ax.bit != 0 {
			continue
		}
		var capableNames []string
		for _, name := range Protocols() {
			if capabilitiesOf(registry[name])&ax.bit != 0 {
				capableNames = append(capableNames, name)
			}
		}
		return fmt.Errorf("%w: %q ignores Env.%s (honoured by %v)", ax.err, p.Name(), ax.field, capableNames)
	}
	return nil
}

// NondeterministicRuntime is implemented by protocols whose runs are NOT
// pure functions of (Env, seed) — the live goroutine runtime, which races
// real scheduling and wall clocks by design. The capability lives on the
// protocol itself, not in a side table, so registering a new live runtime
// cannot silently leave it cacheable. Serving layers use it to decide what
// is safe to cache and de-duplicate by (spec hash, seed).
type NondeterministicRuntime interface {
	// NondeterministicRuntime reports that runs race wall clocks.
	NondeterministicRuntime() bool
}

// isDeterministic reports whether p's runs are pure functions of
// (Env, seed).
func isDeterministic(p Protocol) bool {
	nd, ok := p.(NondeterministicRuntime)
	return !ok || !nd.NondeterministicRuntime()
}

// OptionField describes one decodable knob of a protocol's option struct:
// its Go field name (the JSON key — encoding/json matches it
// case-insensitively) and its Go type.
type OptionField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Info is the registry's metadata for one protocol: what a serving layer
// needs to list protocols, decode their options from JSON and decide
// cacheability, without any per-protocol code.
type Info struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Options lists the JSON-decodable fields of the protocol's option
	// struct (exported, non-func fields, in declaration order).
	Options []OptionField `json:"options"`
	// SupportsFaults reports whether the protocol honours Env.Faults.
	SupportsFaults bool `json:"supports_faults"`
	// SupportsByzantine reports whether the protocol honours Env.Byzantine
	// (adversarial per-node roles).
	SupportsByzantine bool `json:"supports_byzantine"`
	// SupportsBroadcast reports whether the protocol can run on the
	// local-broadcast medium (Env.LocalBroadcast).
	SupportsBroadcast bool `json:"supports_broadcast"`
	// SupportsObserve reports whether the protocol honours Env.Observe
	// (time-series sampling).
	SupportsObserve bool `json:"supports_observe"`
	// SupportsTrace reports whether the protocol honours Env.Trace
	// (causal event tracing).
	SupportsTrace bool `json:"supports_trace"`
	// Deterministic reports whether a run is a pure function of
	// (Env, seed) — false only for the live goroutine runtime.
	Deterministic bool `json:"deterministic"`
}

// optionFields reflects the decodable fields of a protocol's option struct.
func optionFields(p Protocol) []OptionField {
	t := reflect.Indirect(reflect.ValueOf(p)).Type()
	fields := make([]OptionField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() == reflect.Func {
			continue
		}
		fields = append(fields, OptionField{Name: f.Name, Type: f.Type.String()})
	}
	return fields
}

// ProtocolInfo returns the named protocol's registry metadata.
func ProtocolInfo(name string) (Info, bool) {
	p, ok := registry[name]
	if !ok {
		return Info{}, false
	}
	c := capabilitiesOf(p)
	return Info{
		Name:              name,
		Options:           optionFields(p),
		SupportsFaults:    c&capFaults != 0,
		SupportsByzantine: c&capByzantine != 0,
		SupportsBroadcast: c&capBroadcast != 0,
		SupportsObserve:   c&capObserve != 0,
		SupportsTrace:     c&capTrace != 0,
		Deterministic:     isDeterministic(p),
	}, true
}

// Infos returns the metadata of every registered protocol, sorted by name.
func Infos() []Info {
	names := Protocols()
	infos := make([]Info, 0, len(names))
	for _, name := range names {
		info, _ := ProtocolInfo(name)
		infos = append(infos, info)
	}
	return infos
}

// NewInstance returns a fresh pointer to the named protocol's option
// struct — decodable in place with encoding/json (the pointer's method set
// includes the value receivers, so the result runs like any Protocol).
// Each call returns an independent instance, so decoded options never leak
// between runs or into the registry's defaults.
func NewInstance(name string) (Protocol, bool) {
	p, ok := registry[name]
	if !ok {
		return nil, false
	}
	return reflect.New(reflect.Indirect(reflect.ValueOf(p)).Type()).Interface().(Protocol), true
}
