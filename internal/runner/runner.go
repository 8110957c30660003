// Package runner is the unified entry point of the library: one Env type
// stating the ABE environment of Definition 1 once, one Protocol interface
// with per-protocol option structs, one Report shape for every run, and a
// name-keyed registry so tools and experiment harnesses can sweep any
// (protocol × environment) pair generically.
//
// The environment and the protocol are deliberately separated, following
// the paper's own structure: Definition 1 defines the *network* (δ on the
// expected delay, [s_low, s_high] on clock speeds, γ on processing time)
// independently of the *algorithm* run on it. Before this package each
// entry point re-declared its own slice of the environment; now
//
//	rep, err := runner.Run(env, proto)
//
// is the single door. For the event-driven protocols it is also the only
// code that turns an Env into a running network: each protocol contributes
// a node factory, its probe gauges, an optional post-build hook and an
// extractor for its own Report fields, and one pipeline (runNetwork) does
// the rest — graph and link resolution, run bounds, the network build,
// probe and trace installation, the run and the common Report fields.
package runner

import (
	"errors"
	"fmt"
	"math"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/network"
	"abenet/internal/probe"
	"abenet/internal/simtime"
	"abenet/internal/topology"
	"abenet/internal/trace"
)

// Env states the ABE environment (Definition 1) plus the run bounds, once,
// for every protocol. The zero value of every field selects the canonical
// experimental setting: a unidirectional ring, exponential delays with
// δ = 1, perfect clocks, instantaneous processing.
type Env struct {
	// Graph is the communication topology. Nil means topology.Ring(N).
	// Ring-based protocols accept any graph embedding a directed
	// Hamiltonian cycle (BiRing, Complete, Hypercube, ...): messages
	// travel along the embedded cycle and the other edges stay silent.
	Graph *topology.Graph
	// N is the network size, used when Graph is nil. When Graph is set,
	// N must be 0 or equal to the graph's size.
	N int
	// Delay is the per-link message delay distribution — condition 1's δ
	// is its mean. Nil means Exponential(1).
	Delay dist.Dist
	// Links optionally overrides Delay with a full link factory (ARQ,
	// FIFO, heterogeneous). When set, Delay is ignored by protocols that
	// honour Links; protocols with a fixed channel discipline document
	// their behaviour.
	Links channel.Factory
	// Delta optionally declares the bound on the expected link delay (the
	// paper's δ), used to derive balanced protocol defaults (Election's
	// A0, ClockSync's period). Link factories expose no mean before the
	// network is built, so environments using Links should declare Delta;
	// 0 means derive δ from Delay's exact mean (or 1 for link factories).
	Delta float64
	// Clocks is the local clock model — condition 2's [s_low, s_high].
	// Nil means perfect clocks.
	Clocks clock.Model
	// Processing is the event-processing time model — condition 3's γ.
	// Nil means instantaneous processing.
	Processing dist.Dist
	// Seed determines the whole run.
	Seed uint64
	// Horizon bounds virtual time for event-driven protocols; 0 means
	// unbounded.
	Horizon simtime.Time
	// MaxEvents bounds the number of simulation events for event-driven
	// protocols; 0 means the livelock guard DefaultMaxEvents.
	MaxEvents uint64
	// MaxRounds bounds round-based protocols (synchronous engines and
	// synchronizers); 0 means each protocol's default.
	MaxRounds int
	// Tracer optionally observes event-driven runs; nil disables tracing.
	// The round engine (ItaiRodehSync) and the live runtime have no event
	// stream to trace and ignore it.
	Tracer network.Tracer
	// Faults optionally injects deterministic message faults, node churn
	// and link outages (see internal/faults). Honoured by Election,
	// ChangRoberts, BenOr and ItaiRodehAsync (whose FIFO assumption
	// tolerates loss and duplication but not Reorder — reordering an
	// Itai–Rodeh ring measures an assumption violation, not a robustness
	// property). Run rejects a non-nil plan on every other protocol,
	// including Peterson (whose step protocol hard-fails on any gap), with
	// ErrFaultsUnsupported rather than running fault-free. Nil keeps every run
	// byte-identical to a fault-free build. Plans with message loss can
	// deadlock a protocol, so pair them with a finite Horizon.
	Faults *faults.Plan
	// Byzantine optionally assigns adversarial per-node roles —
	// equivocation, omission, corruption, stalling (see internal/byzantine).
	// Honoured by ben-or; every other protocol rejects a non-nil plan with
	// ErrByzantineUnsupported rather than reporting honest numbers as
	// adversarial measurements. Nil keeps every run byte-identical to an
	// adversary-free build.
	Byzantine *byzantine.Plan
	// LocalBroadcast switches the medium from per-edge point-to-point
	// links to atomic local broadcast: one send per transmission,
	// delivered identically to every neighbour at one instant (Khan &
	// Vaidya's radio model, under which equivocation is physically
	// impossible). Honoured by ben-or; every other protocol rejects it
	// with ErrBroadcastUnsupported. Incompatible with Links and with
	// per-message link faults (Loss/Duplicate/Reorder).
	LocalBroadcast bool
	// Observe optionally samples a named time series during the run (see
	// internal/probe): network gauges plus per-protocol gauges, collected
	// off the kernel's post-event hook so the run stays byte-identical to
	// an unobserved one. Honoured by the event-driven election and
	// consensus protocols (election, chang-roberts, itai-rodeh-async,
	// peterson, ben-or), which expose protocol gauges; Run rejects a
	// non-nil config on every other protocol with ErrObserveUnsupported. The
	// collected series lands in Report.Series and never changes any other
	// Report field.
	Observe *probe.Config
	// Trace optionally records a causal event trace of the run (see
	// internal/trace): every send, delivery, timer and the terminal
	// decision gets a stable ID, a Lamport clock and an exact
	// happens-before parent, capped at Trace.MaxEvents with counted
	// truncation. Honoured by the same event-driven network protocols as
	// Observe (election, chang-roberts, itai-rodeh-async, peterson,
	// ben-or); Run rejects a non-nil config on every other protocol with
	// ErrTraceUnsupported. The exported trace lands in Report.Trace and —
	// like Series — never changes any other Report field: a traced run is
	// byte-identical to an untraced one. Mutually exclusive with a
	// caller-supplied Tracer (Run installs its own recorder).
	Trace *trace.Config
}

// The structured environment-validation errors. Env.Validate wraps each
// in context, so callers can classify failures with errors.Is.
var (
	// ErrEnvSize: the environment describes no valid network size (N < 2
	// without a Graph, or N disagreeing with the Graph's size).
	ErrEnvSize = errors.New("runner: invalid network size")
	// ErrEnvDelta: the declared δ is negative or not finite.
	ErrEnvDelta = errors.New("runner: invalid Delta")
	// ErrEnvAmbiguousDelay: Links and Delay are both set but no Delta
	// declares which mean parameterises the protocol defaults.
	ErrEnvAmbiguousDelay = errors.New("runner: ambiguous delay declaration")
	// ErrEnvFaults: the fault plan fails faults.Plan.Validate.
	ErrEnvFaults = errors.New("runner: invalid fault plan")
	// ErrEnvByzantine: the Byzantine plan fails byzantine.Plan.Validate.
	ErrEnvByzantine = errors.New("runner: invalid byzantine plan")
	// ErrEnvBroadcast: LocalBroadcast conflicts with the rest of the
	// environment (a Links factory, or per-message link faults — neither
	// composes with the radio medium).
	ErrEnvBroadcast = errors.New("runner: invalid local-broadcast environment")
	// ErrEnvObserve: the observe config fails probe.Config.Validate.
	ErrEnvObserve = errors.New("runner: invalid observe config")
	// ErrEnvTrace: the trace config fails trace.Config.Validate, or Trace
	// and a caller-supplied Tracer are both set.
	ErrEnvTrace = errors.New("runner: invalid trace config")
)

// The structured capability-rejection errors: Run refuses a protocol that
// cannot honour an environment axis rather than silently reporting
// unaffected numbers. Classify with errors.Is.
var (
	// ErrFaultsUnsupported: the protocol ignores Env.Faults.
	ErrFaultsUnsupported = errors.New("runner: protocol does not support fault injection")
	// ErrByzantineUnsupported: the protocol ignores Env.Byzantine.
	ErrByzantineUnsupported = errors.New("runner: protocol does not support byzantine adversaries")
	// ErrBroadcastUnsupported: the protocol runs on point-to-point links
	// only and ignores Env.LocalBroadcast.
	ErrBroadcastUnsupported = errors.New("runner: protocol does not support the local-broadcast medium")
	// ErrObserveUnsupported: the protocol has no event stream to sample
	// and ignores Env.Observe.
	ErrObserveUnsupported = errors.New("runner: protocol does not support time-series observation")
	// ErrTraceUnsupported: the protocol has no event stream to trace and
	// ignores Env.Trace.
	ErrTraceUnsupported = errors.New("runner: protocol does not support causal tracing")
)

// Validate checks the environment's internal consistency and returns a
// structured error (wrapping one of the ErrEnv* sentinels) describing the
// first violation, or nil. Run calls it, so every protocol rejects an
// invalid Env identically instead of each engine re-checking a slice of
// the rules.
func (e Env) Validate() error {
	n, err := e.size()
	if err != nil {
		return err
	}
	if e.Delta < 0 || math.IsNaN(e.Delta) || math.IsInf(e.Delta, 0) {
		return fmt.Errorf("%w: Delta = %g must be a non-negative finite bound on the expected delay", ErrEnvDelta, e.Delta)
	}
	if e.Links != nil && e.Delay != nil && e.Delta == 0 {
		return fmt.Errorf("%w: both Links and Delay are set; declare Delta to state which mean parameterises the protocol defaults (Links wins at run time)", ErrEnvAmbiguousDelay)
	}
	if err := e.Faults.Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrEnvFaults, err)
	}
	if err := e.Byzantine.Validate(n); err != nil {
		return fmt.Errorf("%w: %v", ErrEnvByzantine, err)
	}
	if err := e.Observe.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrEnvObserve, err)
	}
	if err := e.Trace.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrEnvTrace, err)
	}
	if e.Trace != nil && e.Tracer != nil {
		return fmt.Errorf("%w: Trace and a caller-supplied Tracer are exclusive (Run installs its own recorder for Trace)", ErrEnvTrace)
	}
	if e.LocalBroadcast {
		if e.Links != nil {
			return fmt.Errorf("%w: Links and LocalBroadcast are exclusive (the radio medium replaces per-edge links; shape it with Delay)", ErrEnvBroadcast)
		}
		if e.Faults.HasLinkFaults() {
			return fmt.Errorf("%w: per-message link faults (Loss/Duplicate/Reorder) do not compose with the local-broadcast medium", ErrEnvBroadcast)
		}
	}
	// Per-edge fault events must name edges of the concrete topology — a
	// direction typo would otherwise surface later, unwrapped and
	// protocol-dependent, instead of as a uniform ErrEnvFaults here.
	if e.Faults != nil {
		var g *topology.Graph
		for i, ev := range e.Faults.Events {
			if ev.Kind != faults.KindLinkDown && ev.Kind != faults.KindLinkUp {
				continue
			}
			if g == nil {
				var err error
				if g, err = e.graph(); err != nil {
					return err
				}
			}
			if !g.HasEdge(ev.From, ev.To) {
				return fmt.Errorf("%w: event %d (%s at t=%g): edge %d->%d is not in the topology",
					ErrEnvFaults, i, ev.Kind, ev.At, ev.From, ev.To)
			}
		}
	}
	return nil
}

// size returns the network size the environment describes.
func (e Env) size() (int, error) {
	if e.Graph != nil {
		n := e.Graph.N()
		if e.N != 0 && e.N != n {
			return 0, fmt.Errorf("%w: env.N = %d disagrees with graph size %d", ErrEnvSize, e.N, n)
		}
		return n, nil
	}
	if e.N < 2 {
		return 0, fmt.Errorf("%w: env needs N >= 2 (or a Graph), got N = %d", ErrEnvSize, e.N)
	}
	return e.N, nil
}

// graph returns the concrete topology (building the default ring).
func (e Env) graph() (*topology.Graph, error) {
	if e.Graph != nil {
		return e.Graph, nil
	}
	n, err := e.size()
	if err != nil {
		return nil, err
	}
	return topology.Ring(n), nil
}

// ring returns the concrete topology of a ring protocol and each node's
// out-port to its ring successor: nil ports on the default ring (port 0
// everywhere), the embedded directed Hamiltonian cycle on any other graph.
func (e Env) ring() (*topology.Graph, []int, error) {
	if e.Graph == nil {
		g, err := e.graph()
		return g, nil, err
	}
	ports, err := e.Graph.RingEmbedding()
	if err != nil {
		return nil, nil, fmt.Errorf("runner: %w", err)
	}
	return e.Graph, ports, nil
}

// portAt returns node i's successor port (0 on the default ring).
func portAt(ports []int, i int) int {
	if ports == nil {
		return 0
	}
	return ports[i]
}

// delay returns the delay distribution (defaulting to Exponential(1)).
func (e Env) delay() dist.Dist {
	if e.Delay != nil {
		return e.Delay
	}
	return dist.NewExponential(1)
}

// meanDelay returns the best-known δ of the environment: the declared
// Delta if any, else the delay distribution's mean, else 1 when only a
// link factory is given (factories do not expose a mean before the
// network is built).
func (e Env) meanDelay() float64 {
	if e.Delta > 0 {
		return e.Delta
	}
	if e.Links != nil {
		return 1
	}
	return e.delay().Mean()
}

// Protocol is a runnable protocol: an algorithm plus its options, bound to
// an environment only at Run time. Implementations are option structs
// (Election, ItaiRodehSync, ChangRoberts, ...) whose zero values select
// balanced defaults, so every registry entry is runnable as-is.
type Protocol interface {
	// Name is the registry key (stable, kebab-case).
	Name() string
	// Run executes the protocol on env. Implementations fill every Report
	// field they can and put protocol-specific measurements in Extra.
	Run(env Env) (Report, error)
}

// Run executes protocol p on environment env: the single entry point every
// facade function, tool and sweep goes through. The environment is checked
// by Env.Validate and against the protocol's capabilities here, once, so
// every protocol rejects an invalid or unsupported Env identically.
func Run(env Env, p Protocol) (Report, error) {
	if p == nil {
		return Report{}, errors.New("runner: nil protocol")
	}
	if err := env.Validate(); err != nil {
		return Report{}, err
	}
	if err := CheckCapabilities(env, p); err != nil {
		return Report{}, err
	}
	var rec *trace.Recorder
	if env.Trace != nil {
		rec = trace.NewRecorder(env.Trace.MaxEvents)
		env.Tracer = rec
	}
	rep, err := p.Run(env)
	if err != nil {
		return Report{}, err
	}
	rep.Protocol = p.Name()
	if rec != nil {
		rep.Trace = rec.Export()
	}
	return rep, nil
}

// DefaultMaxEvents is the livelock guard of an event-driven run whose
// Env.MaxEvents is 0.
const DefaultMaxEvents = 50_000_000

// deployment is what one event-driven protocol contributes to a run;
// runNetwork does everything else.
type deployment struct {
	// graph is the topology the protocol runs on.
	graph *topology.Graph
	// discipline applies the protocol's channel discipline (random-delay
	// or FIFO links) to Env.Delay when Env.Links is nil.
	discipline func(dist.Dist) channel.Factory
	// anonymous forbids protocol identity reads.
	anonymous bool
	// node builds the protocol instance for node i, also on churn
	// restarts.
	node func(i int) (network.Node, error)
	// gauges are the protocol's probe gauges (nil: network gauges only).
	gauges probe.Observable
	// built, when set, runs once the network exists, before it runs.
	built func(net *network.Network)
	// physical makes the report carry Transmissions and the network's
	// tightest ABE Params (the election and Ben-Or report shapes).
	physical bool
	// extract fills the protocol's own Report fields after the run.
	extract func(net *network.Network, rep *Report) error
}

// runNetwork builds the network d describes on env, runs it within env's
// bounds and returns the report: the common fields filled here, the
// protocol's own by d.extract.
func runNetwork(env Env, d deployment) (Report, error) {
	cfg := network.Config{
		Graph:          d.graph,
		Links:          env.Links,
		Clocks:         env.Clocks,
		Processing:     env.Processing,
		Seed:           env.Seed,
		Anonymous:      d.anonymous,
		Tracer:         env.Tracer,
		Faults:         env.Faults,
		Byzantine:      env.Byzantine,
		LocalBroadcast: env.LocalBroadcast,
	}
	switch {
	case env.LocalBroadcast:
		cfg.BroadcastDelay = env.delay()
	case cfg.Links == nil:
		cfg.Links = d.discipline(env.delay())
	}
	var buildErr error
	net, err := network.New(cfg, func(i int) network.Node {
		node, err := d.node(i)
		if err != nil {
			buildErr = err
			return idleNode{}
		}
		return node
	})
	if buildErr != nil {
		return Report{}, buildErr
	}
	if err != nil {
		return Report{}, err
	}
	if d.built != nil {
		d.built(net)
	}
	var collector *probe.Collector
	if env.Observe != nil {
		if collector, err = probe.NewCollector(*env.Observe, net, d.gauges); err != nil {
			return Report{}, fmt.Errorf("runner: %w", err)
		}
		net.InstallProbe(collector)
	}
	horizon, maxEvents := env.Horizon, env.MaxEvents
	if horizon == 0 {
		horizon = simtime.Forever
	}
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	if err := net.Run(horizon, maxEvents); err != nil {
		return Report{}, err
	}
	m := net.Metrics()
	rep := Report{
		Messages: m.MessagesSent,
		Time:     float64(net.Now()),
		Events:   net.Kernel().Executed(),
		Faults:   net.FaultTelemetry(),
	}
	if d.physical {
		rep.Transmissions = m.Transmissions
		rep.Params = core.ParamsOf(net)
	}
	if collector != nil {
		collector.Final(net.Now(), rep.Events)
		rep.Series = collector.Series()
	}
	if err := d.extract(net, &rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// idleNode stands in for a node whose construction failed; runNetwork
// returns the construction error before anything runs.
type idleNode struct{}

func (idleNode) Init(*network.Context)                {}
func (idleNode) OnMessage(*network.Context, int, any) {}
func (idleNode) OnTimer(*network.Context, int)        {}

// elect fills the election fields from a per-node leader predicate.
func (r *Report) elect(n int, isLeader func(i int) bool) {
	r.LeaderIndex = -1
	for i := 0; i < n; i++ {
		if isLeader(i) {
			r.Leaders++
			r.LeaderIndex = i
		}
	}
	r.Elected = r.Leaders > 0
}
