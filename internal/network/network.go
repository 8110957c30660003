// Package network executes message-passing protocols on simulated networks.
//
// A Network wires a topology, a link factory (delay model), a clock model
// and a processing-time model onto the discrete-event kernel, and runs one
// protocol instance per node. The three ABE quantities of Definition 1 are
// all first-class here:
//
//	δ — every link reports the exact mean of its delay distribution;
//	    MaxLinkMeanDelay() is the network's tightest valid δ.
//	s_low, s_high — the clock model declares its rate bounds.
//	γ — the processing-time distribution's mean.
//
// Protocols interact with the world only through a Context: local ports,
// local timers in local clock time, a private random stream, and the known
// ring size n. Networks can be declared anonymous, in which case reading
// the node identity panics — the simulator enforces the paper's anonymity
// assumption mechanically.
package network

import (
	"errors"
	"fmt"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// Node is the behaviour of one protocol instance. Implementations must be
// deterministic given the Context's random stream.
type Node interface {
	// Init runs once at time zero, before any message flows.
	Init(ctx *Context)
	// OnMessage handles a message delivered on the given local in-port.
	OnMessage(ctx *Context, inPort int, payload any)
	// OnTimer handles a timer set via Context.SetLocalTimer.
	OnTimer(ctx *Context, kind int)
}

// EventID identifies one recorded trace event. IDs are assigned by the
// Tracer implementation; 0 means "no event" (an untraced cause, or a root
// event with no recorded parent).
type EventID int64

// TraceRef names a recorded trace event together with its Lamport clock.
// The network threads refs through the causal chain — each Tracer callback
// receives the ref of the event that caused the one being recorded, and
// returns the ref of the event it recorded — so attribution is exact: a
// delivery is parented to the send that produced it (the ref rides across
// the link with the payload), and a send or timer is parented to the
// delivery or timer the node was processing when it emitted it. Carrying
// the Lamport clock inside the ref lets an implementation merge clocks on
// delivery without keeping per-event state alive past its storage cap.
// The zero TraceRef marks a causal root (e.g. a send from Node.Init).
type TraceRef struct {
	ID      EventID
	Lamport uint64
}

// Tracer observes network events and assigns each a causal identity.
// Implementations must not mutate protocol state, and must not schedule
// kernel events — a traced run must stay byte-identical to an untraced
// one. A nil Tracer disables tracing. Each method returns the ref of the
// event it recorded so the network can hand it to causally downstream
// events; cause (resp. send, parent) is the ref of the event that led to
// this one, zero for causal roots.
type Tracer interface {
	// MessageSent records a logical send from node from to node to (-1 for
	// a radio broadcast). cause is the event the sender was processing.
	MessageSent(at simtime.Time, from, to int, payload any, cause TraceRef) TraceRef
	// MessageDelivered records a delivery; send is the ref returned by the
	// MessageSent that produced this payload (zero if the payload predates
	// tracing, which cannot happen under a Tracer fixed at construction).
	MessageDelivered(at simtime.Time, from, to int, payload any, send TraceRef) TraceRef
	// TimerFired records a local timer firing; cause is the event the node
	// was processing when it set the timer.
	TimerFired(at simtime.Time, node, kind int, cause TraceRef) TraceRef
	// Decision records the protocol's terminal event: a node stopped the
	// network (Context.StopNetwork), e.g. because a leader was elected.
	// cause is the event being processed when the protocol decided.
	Decision(at simtime.Time, node int, reason string, cause TraceRef) TraceRef
}

// tracedPayload tags a payload crossing a link with the ref of the send
// event that produced it, so the delivery at the far end can name its
// exact cause. Links treat payloads as opaque values — the tag changes no
// delay sampling and no scheduling, which is what keeps a traced run
// byte-identical to an untraced one. Payloads are tagged after the
// Byzantine intercept (a corrupting adversary replaces the payload; the
// tag must survive on whatever actually crosses the link) and stripped in
// deliverTo before the protocol sees them.
type tracedPayload struct {
	payload any
	send    TraceRef
}

// Metrics aggregates network-wide counters.
type Metrics struct {
	MessagesSent      uint64 // logical sends (each hop of a travelling token counts once)
	MessagesDelivered uint64
	Transmissions     uint64 // physical transmissions including ARQ retries
	TimersFired       uint64
}

// Config describes a network to build.
type Config struct {
	// Graph is the communication topology. Required.
	Graph *topology.Graph
	// Links builds one link per directed edge. Required.
	Links channel.Factory
	// Clocks assigns local clocks. Nil means perfect unit-rate clocks.
	Clocks clock.Model
	// Processing is the per-event processing-time distribution (the γ
	// model). Nil means instantaneous processing.
	Processing dist.Dist
	// Seed determines every random choice in the run.
	Seed uint64
	// Anonymous networks panic if a protocol reads a node identity.
	Anonymous bool
	// Tracer observes events; nil disables tracing.
	Tracer Tracer
	// Faults optionally injects deterministic message faults, node churn
	// and link outages (see internal/faults). Outages and the per-message
	// Loss/Duplicate/Reorder draws act on the send path, in front of the
	// links, so they compose with any link factory. Nil disables the
	// subsystem entirely: the run is byte-identical to one without it.
	Faults *faults.Plan
	// Byzantine optionally assigns adversarial roles to nodes (see
	// internal/byzantine): equivocation, omission, corruption and
	// stalling, intercepted on the send path. Nil disables the subsystem
	// entirely: the run is byte-identical to one without it.
	Byzantine *byzantine.Plan
	// LocalBroadcast switches the medium to Khan & Vaidya's local-
	// broadcast model: protocols send via Context.Broadcast only (Send
	// panics), and each broadcast is one atomic radio transmission
	// delivered identically to every out-neighbour at one instant. When
	// set, Links must be nil and BroadcastDelay states the medium delay.
	LocalBroadcast bool
	// BroadcastDelay is the per-transmission delay distribution of the
	// local-broadcast medium. Nil means Exponential(1). Ignored unless
	// LocalBroadcast is set.
	BroadcastDelay dist.Dist
}

// Network is a runnable protocol deployment. Create one with New, then Run.
//
// Its state lives in flat per-network slices — contexts, random streams,
// the edge table and the links — so building a network allocates per
// network rather than per node or per edge, apart from what the node
// constructor and the link factory allocate themselves.
type Network struct {
	cfg    Config
	kernel *sim.Kernel
	nodes  []Node
	ctxs   []Context
	// ports is the edge table: u's out-port p is edge ports.Start[u]+p,
	// leading to ports.To[e] on its in-port ports.InPort[e].
	ports    topology.Ports
	links    []channel.Link // links[e]: edge e's link (point-to-point mode)
	allLinks []channel.Link // every link: links, or the radios in LocalBroadcast mode
	clocks   []clock.Clock
	nextFree []simtime.Time // per-node completion time of the busy server
	metrics  Metrics
	procMean float64
	makeNode func(i int) Node          // retained for fault-recovery restarts
	life     *lifecycle                // nil unless cfg.Faults is set
	adv      *adversary                // nil unless cfg.Byzantine is set
	bcast    []*channel.LocalBroadcast // per-node radio links (LocalBroadcast mode)
	fire     sim.ArgHandler            // fireTimer, bound once for every fault-free untraced timer

	// cause is the ref of the trace event whose handler is currently
	// running — the delivery or timer being processed — so that sends,
	// timers and decisions emitted from inside it are parented exactly.
	// The kernel is single-threaded, so a plain field with save/restore
	// around each handler is enough. Always zero when cfg.Tracer is nil.
	cause TraceRef
}

// edgeAddress identifies the receiving side of a directed edge. Each
// link's delivery callback carries its own copy, so a delivery reads its
// destination from the callback it is already running.
type edgeAddress struct {
	from, to, inPort int32
}

// New builds a network running makeNode(i) on node i of cfg.Graph.
func New(cfg Config, makeNode func(i int) Node) (*Network, error) {
	if cfg.Graph == nil {
		return nil, errors.New("network: config needs a graph")
	}
	if cfg.LocalBroadcast {
		if cfg.Links != nil {
			return nil, errors.New("network: LocalBroadcast replaces per-edge links; set BroadcastDelay, not Links")
		}
		if cfg.Faults.HasLinkFaults() {
			return nil, errors.New("network: per-message link faults (Loss/Duplicate/Reorder) model point-to-point channels and do not compose with the local-broadcast medium")
		}
		if cfg.BroadcastDelay == nil {
			cfg.BroadcastDelay = dist.NewExponential(1)
		}
	} else if cfg.Links == nil {
		return nil, errors.New("network: config needs a link factory")
	}
	if makeNode == nil {
		return nil, errors.New("network: nil node constructor")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if cfg.Clocks == nil {
		cfg.Clocks = clock.PerfectModel{}
	}

	n := cfg.Graph.N()
	ports := cfg.Graph.Ports()
	root := rng.New(cfg.Seed)
	net := &Network{
		cfg:      cfg,
		kernel:   sim.New(),
		nodes:    make([]Node, n),
		ctxs:     make([]Context, n),
		ports:    ports,
		clocks:   make([]clock.Clock, n),
		nextFree: make([]simtime.Time, n),
		makeNode: makeNode,
	}
	net.fire = net.fireTimer
	if cfg.Processing != nil {
		net.procMean = cfg.Processing.Mean()
	}
	if cfg.Faults != nil {
		life, err := newLifecycle(net, cfg.Faults, root)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		net.life = life
	}
	if cfg.Byzantine != nil {
		adv, err := newAdversary(net, cfg.Byzantine, root)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		net.adv = adv
	}

	// Every stream is root.DeriveIndexed(label, index), with each label
	// hashed once per network. Clocks and links keep pointers to theirs,
	// so those live in one slice: node i's clock stream at i, then one
	// stream per edge (per radio in LocalBroadcast mode).
	linkStreams := len(ports.To)
	if cfg.LocalBroadcast {
		linkStreams = n
	}
	streams := make([]rng.Source, n+linkStreams)
	clockStreams, nodeStreams, procStreams := root.Stream("clock"), root.Stream("node"), root.Stream("proc")
	for i := 0; i < n; i++ {
		streams[i] = clockStreams.At(i)
		net.clocks[i] = cfg.Clocks.NewClock(&streams[i])
		net.ctxs[i] = Context{
			net:  net,
			id:   i,
			r:    nodeStreams.At(i),
			proc: procStreams.At(i),
		}
		net.nodes[i] = makeNode(i)
		if net.nodes[i] == nil {
			return nil, fmt.Errorf("network: makeNode(%d) returned nil", i)
		}
	}

	if cfg.LocalBroadcast {
		// One radio link per sender; the delivery fan-out walks the
		// sender's out-edges at the shared delivery instant. The stream
		// label is distinct from "edge", so switching media re-seeds
		// nothing else.
		radioStreams := root.Stream("bcast")
		net.bcast = make([]*channel.LocalBroadcast, n)
		net.allLinks = make([]channel.Link, n)
		for u := 0; u < n; u++ {
			r := &streams[n+u]
			*r = radioStreams.At(u)
			lb := channel.NewLocalBroadcast(net.kernel, cfg.BroadcastDelay, r,
				net.fanoutFunc(u), int(ports.Start[u+1]-ports.Start[u]))
			net.bcast[u] = lb
			net.allLinks[u] = lb
		}
	} else {
		edgeStreams := root.Stream("edge")
		net.links = make([]channel.Link, len(ports.To))
		for u := 0; u < n; u++ {
			for e := ports.Start[u]; e < ports.Start[u+1]; e++ {
				r := &streams[n+int(e)]
				*r = edgeStreams.At(int(e))
				if net.life != nil && net.life.linkRNG != nil {
					net.life.linkRNG[e] = *r.Derive("impair")
				}
				addr := edgeAddress{from: int32(u), to: ports.To[e], inPort: ports.InPort[e]}
				link := cfg.Links(net.kernel, r, net.deliverFunc(addr))
				if link == nil {
					return nil, fmt.Errorf("network: link factory returned nil for edge %d->%d", u, ports.To[e])
				}
				net.links[e] = link
			}
		}
		net.allLinks = net.links
	}
	return net, nil
}

// deliverFunc returns the link callback delivering into the destination's
// processing queue. Deliveries to a crashed node are suppressed (counted
// as dead letters), deterministically: the suppression depends only on the
// node's fault schedule.
func (net *Network) deliverFunc(addr edgeAddress) channel.DeliverFunc {
	return func(payload any) { net.deliverTo(addr, payload) }
}

// deliverTo delivers one payload at the receiving end of a directed edge.
func (net *Network) deliverTo(addr edgeAddress, payload any) {
	if net.life != nil && net.life.down[addr.to] {
		net.life.tel.DeadLetters++
		return
	}
	net.metrics.MessagesDelivered++
	if net.cfg.Tracer == nil && net.cfg.Processing == nil {
		// Closure-free fast path: with instantaneous processing the queue
		// model is a no-op (process would run the work inline), so the
		// handler can be invoked directly. This is the per-delivery hot
		// path for large untraced runs, and it allocates nothing.
		to := int(addr.to)
		net.nodes[to].OnMessage(&net.ctxs[to], int(addr.inPort), payload)
		return
	}
	net.deliverQueued(addr, payload)
}

// deliverQueued is deliverTo through the processing queue and the tracer.
// It is a function of its own because its closures capture addr and
// payload: inside deliverTo they would move both to the heap on every
// delivery, the fast path's included.
func (net *Network) deliverQueued(addr edgeAddress, payload any) {
	to, inPort := int(addr.to), int(addr.inPort)
	if net.cfg.Tracer == nil {
		net.process(to, deadLetterCounter, func() {
			net.nodes[to].OnMessage(&net.ctxs[to], inPort, payload)
		})
		return
	}
	var send TraceRef
	if tp, ok := payload.(tracedPayload); ok {
		send, payload = tp.send, tp.payload
	}
	ref := net.cfg.Tracer.MessageDelivered(net.kernel.Now(), int(addr.from), to, payload, send)
	inner := payload
	net.process(to, deadLetterCounter, func() {
		prev := net.cause
		net.cause = ref
		net.nodes[to].OnMessage(&net.ctxs[to], inPort, inner)
		net.cause = prev
	})
}

// fanoutFunc returns the radio callback for sender u in local-broadcast
// mode: one call per transmission, fanned out to every out-edge at the
// shared delivery instant. Scripted link outages and partitions are radio
// obstructions here — they are checked per receiving edge at the delivery
// instant (a receiver behind a downed edge misses the transmission, counted
// as a link drop), so a partition cuts a broadcast exactly as it cuts
// point-to-point traffic.
func (net *Network) fanoutFunc(u int) channel.DeliverFunc {
	return func(payload any) {
		for e := net.ports.Start[u]; e < net.ports.Start[u+1]; e++ {
			if net.life != nil && net.life.edgeDown(int(e)) {
				net.life.tel.LinkDrops++
				continue
			}
			net.deliverTo(edgeAddress{from: int32(u), to: net.ports.To[e], inPort: net.ports.InPort[e]}, payload)
		}
	}
}

// Suppression counters for work that dies in a node's processing queue
// when the node crashes mid-queue: messages count as dead letters, timer
// handlers as suppressed timers.
const (
	deadLetterCounter = iota
	timerCounter
)

// process runs work for node v after the node's processing delay, modelling
// each node as a single busy server: events queue and are handled in FIFO
// completion order. With no processing model the work runs inline. Under
// fault injection, work queued before a crash (or restart) is stale and is
// suppressed at completion time via the node's epoch, charged to the
// counter selected by counterKind.
func (net *Network) process(v, counterKind int, work func()) {
	if net.cfg.Processing == nil {
		work()
		return
	}
	if net.life != nil {
		work = net.life.guard(v, net.life.suppressionCounter(counterKind), work)
	}
	now := net.kernel.Now()
	start := now
	if net.nextFree[v].After(start) {
		start = net.nextFree[v]
	}
	completion := start.Add(simtime.Duration(net.cfg.Processing.Sample(&net.ctxs[v].proc)))
	net.nextFree[v] = completion
	net.kernel.At(completion, work)
}

// Run initialises all nodes (in index order at time zero) and executes the
// simulation. See sim.Kernel.Run for the meaning of horizon and maxEvents.
// A protocol-requested stop (Context.StopNetwork) is a clean completion and
// returns nil.
func (net *Network) Run(horizon simtime.Time, maxEvents uint64) error {
	if net.life != nil {
		net.life.applyAtTimeZero()
	}
	// Most protocols set about one timer per node from Init; making room
	// for them up front grows the schedule once instead of by copying.
	net.kernel.Reserve(len(net.nodes))
	for i, node := range net.nodes {
		if net.life != nil && net.life.down[i] {
			continue // crashed from t = 0: Init runs at recovery, if any
		}
		node.Init(&net.ctxs[i])
	}
	if net.life != nil {
		net.life.install()
	}
	err := net.kernel.Run(horizon, maxEvents)
	if errors.Is(err, sim.ErrStopped) {
		return nil
	}
	return err
}

// Now returns the current virtual time.
func (net *Network) Now() simtime.Time { return net.kernel.Now() }

// StopCause returns the cause recorded when the protocol stopped the
// network, or "".
func (net *Network) StopCause() string { return net.kernel.StopCause() }

// Metrics returns a snapshot of the network counters, with transmissions
// aggregated over all links.
func (net *Network) Metrics() Metrics {
	m := net.metrics
	m.Transmissions = 0
	for _, l := range net.allLinks {
		m.Transmissions += l.Stats().Transmissions
	}
	return m
}

// N returns the number of nodes.
func (net *Network) N() int { return len(net.nodes) }

// NodeAt returns the protocol instance on node i, for post-run inspection.
func (net *Network) NodeAt(i int) Node { return net.nodes[i] }

// MaxLinkMeanDelay returns the maximum per-link expected delay — the
// tightest δ for which this network satisfies ABE Definition 1, condition 1.
func (net *Network) MaxLinkMeanDelay() float64 {
	max := 0.0
	for _, l := range net.allLinks {
		if m := l.MeanDelay(); m > max {
			max = m
		}
	}
	return max
}

// ClockBounds returns the clock model's (s_low, s_high).
func (net *Network) ClockBounds() (low, high float64) { return net.cfg.Clocks.Bounds() }

// FaultTelemetry returns a snapshot of the run's fault telemetry (what the
// configured faults.Plan and byzantine.Plan actually did), or nil when the
// network was built without either subsystem.
func (net *Network) FaultTelemetry() *faults.Telemetry {
	if net.life == nil && net.adv == nil {
		return nil
	}
	tel := &faults.Telemetry{}
	if net.life != nil {
		tel = net.life.telemetry()
	}
	if net.adv != nil {
		tel.Byzantine = net.adv.telemetry()
	}
	return tel
}

// NodeDown reports whether node i is currently crashed (always false
// without fault injection).
func (net *Network) NodeDown(i int) bool { return net.life != nil && net.life.down[i] }

// ProcessingMean returns the mean event-processing time — the tightest γ
// for Definition 1, condition 3 (0 if processing is instantaneous).
func (net *Network) ProcessingMean() float64 { return net.procMean }

// Kernel exposes the underlying kernel for tests and advanced drivers.
func (net *Network) Kernel() *sim.Kernel { return net.kernel }

// Context is a node's window onto the network. All methods must be called
// from protocol callbacks (Init, OnMessage, OnTimer) only.
type Context struct {
	net  *Network
	id   int
	r    rng.Source // the node's private stream; Rand hands out &r
	proc rng.Source // processing-time samples
}

// timerKindBits is how many low bits of a fireTimer argument hold the
// timer kind; the node index fills the rest. Protocols use small dense
// kind constants, and a kind outside [0, 1<<timerKindBits) takes a
// per-set closure instead.
const timerKindBits = 8

// N returns the network size. The paper's election algorithm assumes known
// ring size n, so this is part of a node's a-priori knowledge.
func (c *Context) N() int { return c.net.N() }

// ID returns the node's identity. On anonymous networks this panics:
// protocols for anonymous networks must not depend on identities.
func (c *Context) ID() int {
	if c.net.cfg.Anonymous {
		panic("network: protocol read node identity on an anonymous network")
	}
	return c.id
}

// OutDegree returns the number of outgoing ports.
func (c *Context) OutDegree() int { return int(c.net.ports.Start[c.id+1] - c.net.ports.Start[c.id]) }

// InDegree returns the number of incoming ports.
func (c *Context) InDegree() int { return c.net.cfg.Graph.InDegree(c.id) }

// Send transmits payload on the given out-port. A send on a link taken
// down by a scripted outage or partition, or lost to the fault plan's
// Loss, counts as sent but is dropped at the link boundary (messages
// already in flight still arrive). Under a byzantine.Plan the sender's
// role intercepts the message here — a Mute send still counts as sent
// (the protocol instance believes it sent), and a Stall holds the message
// back before it reaches the link. On a local-broadcast network Send
// panics: the radio medium has no addressable point-to-point links;
// protocols use Broadcast.
func (c *Context) Send(outPort int, payload any) {
	if c.net.cfg.LocalBroadcast {
		panic("network: point-to-point Send on a local-broadcast network (use Context.Broadcast)")
	}
	if deg := c.OutDegree(); outPort < 0 || outPort >= deg {
		panic(fmt.Sprintf("network: node has %d out-ports, sent on %d", deg, outPort))
	}
	c.net.metrics.MessagesSent++
	var ref TraceRef
	if c.net.cfg.Tracer != nil {
		to := int(c.net.ports.To[c.edge(outPort)])
		ref = c.net.cfg.Tracer.MessageSent(c.net.kernel.Now(), c.id, to, payload, c.net.cause)
	}
	if adv := c.net.adv; adv != nil {
		out, drop, hold := adv.intercept(c.id, payload, false)
		if drop {
			return
		}
		payload = out
		if hold > 0 {
			c.net.kernel.After(hold, func() { c.sendOnPort(outPort, payload, ref) })
			return
		}
	}
	c.sendOnPort(outPort, payload, ref)
}

// sendOnPort puts payload on the outPort link, honouring scripted link
// outages at the (possibly stalled) transmission instant and then the
// plan's per-message loss, duplication and reorder. send is the traced ref
// of the logical send, carried across the link with the payload so the
// delivery can name its cause; zero when tracing is off.
func (c *Context) sendOnPort(outPort int, payload any, send TraceRef) {
	e := c.edge(outPort)
	life := c.net.life
	if life != nil && life.edgeDown(e) {
		life.tel.LinkDrops++
		return
	}
	if c.net.cfg.Tracer != nil {
		payload = tracedPayload{payload: payload, send: send}
	}
	if life != nil && life.linkRNG != nil {
		life.send(e, payload)
		return
	}
	c.net.links[e].Send(payload)
}

// edge returns the edge index of the node's out-port p.
func (c *Context) edge(p int) int { return int(c.net.ports.Start[c.id]) + p }

// Broadcast sends payload to every out-neighbour — the medium-agnostic
// send for broadcast protocols. On a point-to-point network it loops over
// the out-ports: each copy samples its own link delay, and an Equivocate
// role may substitute a *different* payload per receiver. On a
// local-broadcast network it is one atomic radio transmission delivered
// identically to every neighbour at one instant, so per-receiver
// divergence is physically impossible (Khan & Vaidya's model). Tracers see
// one MessageSent with to = -1 for a radio transmission.
func (c *Context) Broadcast(payload any) {
	if !c.net.cfg.LocalBroadcast {
		for p := range c.OutDegree() {
			c.Send(p, payload)
		}
		return
	}
	c.net.metrics.MessagesSent++
	traced := c.net.cfg.Tracer != nil
	var ref TraceRef
	if traced {
		ref = c.net.cfg.Tracer.MessageSent(c.net.kernel.Now(), c.id, -1, payload, c.net.cause)
	}
	link := c.net.bcast[c.id]
	if adv := c.net.adv; adv != nil {
		out, drop, hold := adv.intercept(c.id, payload, true)
		if drop {
			return
		}
		payload = out
		if hold > 0 {
			if traced {
				payload = tracedPayload{payload: payload, send: ref}
			}
			stalled := payload
			c.net.kernel.After(hold, func() { link.Send(stalled) })
			return
		}
	}
	if traced {
		// One tag shared by the whole radio fan-out: every receiver's
		// delivery is parented to the single atomic transmission.
		payload = tracedPayload{payload: payload, send: ref}
	}
	link.Send(payload)
}

// LocalTime returns the node's local clock reading.
func (c *Context) LocalTime() float64 { return c.net.clocks[c.id].LocalAt(c.net.kernel.Now()) }

// SetLocalTimer schedules OnTimer(kind) to fire when the node's local clock
// has advanced by localDelta (> 0). Timers belong to the incarnation that
// set them: if the node crashes (or crashes and restarts) before the fire
// instant, the fire is suppressed.
//
// Without faults and tracing, a timer's handler depends only on (node,
// kind), so one network-wide handler serves them all with the pair packed
// into its argument and setting a timer allocates nothing. A fault guard
// captures the node's crash epoch at set time and a traced firing the
// setter's causal ref, so those timers take a per-set closure.
func (c *Context) SetLocalTimer(localDelta float64, kind int) {
	at := c.timerInstant(localDelta)
	if c.net.life == nil && c.net.cfg.Tracer == nil && kind >= 0 && kind < 1<<timerKindBits {
		c.net.kernel.AtArg(at, c.net.fire, uint64(c.id)<<timerKindBits|uint64(kind))
		return
	}
	c.net.kernel.At(at, c.timerFire(kind))
}

// fireTimer fires the local timer packed into arg by SetLocalTimer.
func (net *Network) fireTimer(arg uint64) {
	net.onTimer(int(arg>>timerKindBits), int(arg&(1<<timerKindBits-1)))
}

// onTimer fires node v's timer of the given kind on a network without
// faults and tracing.
func (net *Network) onTimer(v, kind int) {
	net.metrics.TimersFired++
	if net.cfg.Processing == nil {
		net.nodes[v].OnTimer(&net.ctxs[v], kind)
		return
	}
	net.process(v, timerCounter, func() {
		net.nodes[v].OnTimer(&net.ctxs[v], kind)
	})
}

// timerInstant validates localDelta and converts it to the real fire
// instant on the node's local clock.
func (c *Context) timerInstant(localDelta float64) simtime.Time {
	if localDelta <= 0 {
		panic(fmt.Sprintf("network: local timer delta %g must be positive", localDelta))
	}
	return c.net.clocks[c.id].RealAfterLocal(c.net.kernel.Now(), localDelta)
}

// timerFire builds the kernel handler for a local timer, including the
// crash-epoch guard under fault injection. The causal parent of the firing
// is the event the node was processing when it *set* the timer, captured
// here (SetLocalTimer runs inside that event's handler).
func (c *Context) timerFire(kind int) sim.Handler {
	if c.net.life == nil && c.net.cfg.Tracer == nil {
		return func() { c.net.onTimer(c.id, kind) }
	}
	setCause := c.net.cause
	fire := func() {
		c.net.metrics.TimersFired++
		if c.net.cfg.Tracer == nil {
			c.net.process(c.id, timerCounter, func() {
				c.net.nodes[c.id].OnTimer(c, kind)
			})
			return
		}
		ref := c.net.cfg.Tracer.TimerFired(c.net.kernel.Now(), c.id, kind, setCause)
		c.net.process(c.id, timerCounter, func() {
			prev := c.net.cause
			c.net.cause = ref
			c.net.nodes[c.id].OnTimer(c, kind)
			c.net.cause = prev
		})
	}
	if life := c.net.life; life != nil {
		fire = life.guard(c.id, &life.tel.TimersSuppressed, fire)
	}
	return fire
}

// Rand returns the node's private random stream.
func (c *Context) Rand() *rng.Source { return &c.r }

// Now returns global simulation time. It exists for measurement and
// tracing; protocols for asynchronous models must not branch on it (they
// could not observe it in reality). Anonymous-network protocols in this
// repository only use LocalTime.
func (c *Context) Now() simtime.Time { return c.net.kernel.Now() }

// StopNetwork halts the simulation after the current event, recording a
// cause. Used by protocols upon termination (e.g. a leader was elected).
// Under a Tracer this is the run's decision event — the terminus of the
// causal chain a critical-path analysis walks back from — parented to the
// delivery or timer being processed when the protocol decided.
func (c *Context) StopNetwork(cause string) {
	if t := c.net.cfg.Tracer; t != nil {
		t.Decision(c.net.kernel.Now(), c.id, cause, c.net.cause)
	}
	c.net.kernel.Stop(cause)
}
