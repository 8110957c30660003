package network

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// relay forwards every received message on out-port 0, up to a budget, then
// stops the network.
type relay struct {
	budget  int
	starter bool
	seen    int
}

func (p *relay) Init(ctx *Context) {
	if p.starter {
		ctx.Send(0, "token")
	}
}

func (p *relay) OnMessage(ctx *Context, _ int, payload any) {
	p.seen++
	p.budget--
	if p.budget <= 0 {
		ctx.StopNetwork("budget exhausted")
		return
	}
	ctx.Send(0, payload)
}

func (p *relay) OnTimer(*Context, int) {}

func ringOfRelays(t *testing.T, n int, seed uint64) *Network {
	t.Helper()
	net, err := New(Config{
		Graph: topology.Ring(n),
		Links: channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:  seed,
	}, func(i int) Node {
		return &relay{budget: 1000, starter: i == 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestTokenCirculatesRing(t *testing.T) {
	net := ringOfRelays(t, 5, 1)
	if err := net.Run(simtime.Forever, 100000); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.MessagesSent == 0 || m.MessagesDelivered == 0 {
		t.Fatalf("no traffic: %+v", m)
	}
	// The token is conserved: exactly one send per delivery plus the seed.
	if m.MessagesSent != m.MessagesDelivered {
		t.Fatalf("sent %d != delivered %d with a conserved token", m.MessagesSent, m.MessagesDelivered)
	}
	if net.StopCause() != "budget exhausted" {
		t.Fatalf("stop cause = %q", net.StopCause())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Metrics, simtime.Time) {
		net := ringOfRelays(t, 7, 42)
		if err := net.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return net.Metrics(), net.Now()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("replay diverged: %+v@%v vs %+v@%v", m1, t1, m2, t2)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := ringOfRelays(t, 7, 1)
	b := ringOfRelays(t, 7, 2)
	if err := a.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if a.Now() == b.Now() {
		t.Fatal("different seeds produced identical completion times")
	}
}

// idReader reads its identity in Init.
type idReader struct{ sawID int }

func (p *idReader) Init(ctx *Context)            { p.sawID = ctx.ID() }
func (p *idReader) OnMessage(*Context, int, any) {}
func (p *idReader) OnTimer(*Context, int)        {}

func TestAnonymityEnforced(t *testing.T) {
	net, err := New(Config{
		Graph:     topology.Ring(3),
		Links:     channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:      1,
		Anonymous: true,
	}, func(int) Node { return &idReader{} })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading ID on an anonymous network did not panic")
		}
	}()
	_ = net.Run(simtime.Forever, 0)
}

func TestIDAvailableOnNamedNetwork(t *testing.T) {
	net, err := New(Config{
		Graph: topology.Ring(3),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  1,
	}, func(int) Node { return &idReader{sawID: -1} })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		node, ok := net.NodeAt(i).(*idReader)
		if !ok {
			t.Fatal("unexpected node type")
		}
		if node.sawID != i {
			t.Fatalf("node %d saw id %d", i, node.sawID)
		}
	}
}

// ticker counts timer firings and measures local-time spacing.
type ticker struct {
	ticks  int
	limit  int
	locals []float64
}

func (p *ticker) Init(ctx *Context) {
	ctx.SetLocalTimer(1, 0)
}

func (p *ticker) OnMessage(*Context, int, any) {}

func (p *ticker) OnTimer(ctx *Context, kind int) {
	p.ticks++
	p.locals = append(p.locals, ctx.LocalTime())
	if p.ticks >= p.limit {
		ctx.StopNetwork("done ticking")
		return
	}
	ctx.SetLocalTimer(1, 0)
}

func TestLocalTimersFollowLocalClocks(t *testing.T) {
	net, err := New(Config{
		Graph:  topology.Ring(2),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Clocks: clock.NewUniformFixedModel(2, 2), // all clocks run at 2x
		Seed:   3,
	}, func(i int) Node { return &ticker{limit: 10} })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	// 10 local units at rate 2 = 5 real units.
	if got := float64(net.Now()); got < 4.99 || got > 5.01 {
		t.Fatalf("10 local ticks at rate 2 ended at real %v, want 5", got)
	}
	node, ok := net.NodeAt(0).(*ticker)
	if !ok {
		t.Fatal("unexpected node type")
	}
	for i, lt := range node.locals {
		want := float64(i + 1)
		if lt < want-1e-9 || lt > want+1e-9 {
			t.Fatalf("tick %d at local time %v, want %v", i, lt, want)
		}
	}
}

func TestTimerCancellation(t *testing.T) {
	type canceller struct {
		ticker // embed for OnMessage
	}
	_ = canceller{}

	fired := false
	node := &funcNode{
		init: func(ctx *Context) {
			ticket := ctx.SetLocalTimer(1, 0)
			if !ticket.Cancel() {
				t.Error("cancel failed")
			}
		},
		onTimer: func(*Context, int) { fired = true },
	}
	net, err := New(Config{
		Graph: topology.Ring(2),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  4,
	}, func(i int) Node {
		if i == 0 {
			return node
		}
		return &funcNode{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// funcNode adapts closures to the Node interface for small tests.
type funcNode struct {
	init      func(*Context)
	onMessage func(*Context, int, any)
	onTimer   func(*Context, int)
}

func (f *funcNode) Init(ctx *Context) {
	if f.init != nil {
		f.init(ctx)
	}
}

func (f *funcNode) OnMessage(ctx *Context, port int, payload any) {
	if f.onMessage != nil {
		f.onMessage(ctx, port, payload)
	}
}

func (f *funcNode) OnTimer(ctx *Context, kind int) {
	if f.onTimer != nil {
		f.onTimer(ctx, kind)
	}
}

func TestProcessingDelaySerialisesEvents(t *testing.T) {
	// Node 1 receives two messages at the same instant; with deterministic
	// processing time 1 they must complete at t=2 and t=3 (busy server),
	// not both at t=2.
	var completions []simtime.Time
	receiver := &funcNode{
		onMessage: func(ctx *Context, _ int, _ any) {
			completions = append(completions, ctx.Now())
		},
	}
	net, err := New(Config{
		Graph:      topology.Ring(2),
		Links:      channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Processing: dist.NewDeterministic(1),
		Seed:       5,
	}, func(i int) Node {
		if i == 1 {
			return receiver
		}
		return &funcNode{init: func(ctx *Context) {
			ctx.Send(0, "a")
			ctx.Send(0, "b")
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(completions) != 2 {
		t.Fatalf("completions = %v", completions)
	}
	if completions[0] != 2 || completions[1] != 3 {
		t.Fatalf("busy-server completions = %v, want [2 3]", completions)
	}
}

func TestABEParameterReporting(t *testing.T) {
	net, err := New(Config{
		Graph:      topology.Ring(4),
		Links:      channel.RandomDelayFactory(dist.NewExponential(2.5)),
		Clocks:     clock.NewUniformFixedModel(0.5, 2),
		Processing: dist.NewDeterministic(0.25),
		Seed:       6,
	}, func(int) Node { return &funcNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := net.MaxLinkMeanDelay(); got != 2.5 {
		t.Fatalf("δ = %v, want 2.5", got)
	}
	low, high := net.ClockBounds()
	if low != 0.5 || high != 2 {
		t.Fatalf("clock bounds = (%v, %v)", low, high)
	}
	if got := net.ProcessingMean(); got != 0.25 {
		t.Fatalf("γ = %v, want 0.25", got)
	}
}

func TestHeterogeneousDeltaIsMaxLinkMean(t *testing.T) {
	means := []float64{1, 3, 2, 0.5}
	net, err := New(Config{
		Graph: topology.Ring(4),
		Links: channel.HeterogeneousFactory(func(i int) dist.Dist {
			return dist.NewExponential(means[i%len(means)])
		}),
		Seed: 7,
	}, func(int) Node { return &funcNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if got := net.MaxLinkMeanDelay(); got != 3 {
		t.Fatalf("δ = %v, want 3 (the worst link)", got)
	}
}

// TestHeterogeneousLinksRestartPerNetwork builds two networks in turn
// from one HeterogeneousFactory: both must number their edges from 0, so
// their per-edge delay models are the same.
func TestHeterogeneousLinksRestartPerNetwork(t *testing.T) {
	links := channel.HeterogeneousFactory(func(edge int) dist.Dist {
		return dist.NewDeterministic(float64(edge%3 + 1))
	})
	means := func() []float64 {
		net, err := New(Config{Graph: topology.BiRing(5), Links: links, Seed: 3},
			func(int) Node { return &funcNode{} })
		if err != nil {
			t.Fatal(err)
		}
		var m []float64
		for _, l := range net.allLinks {
			m = append(m, l.MeanDelay())
		}
		return m
	}
	first, second := means(), means()
	for e := range first {
		if want := float64(e%3 + 1); first[e] != want || second[e] != want {
			t.Fatalf("edge %d means %v then %v, want %v both times", e, first[e], second[e], want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Graph: topology.Ring(2),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
	}
	mk := func(int) Node { return &funcNode{} }

	if _, err := New(Config{Links: good.Links}, mk); err == nil {
		t.Fatal("missing graph accepted")
	}
	if _, err := New(Config{Graph: good.Graph}, mk); err == nil {
		t.Fatal("missing link factory accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Fatal("nil node constructor accepted")
	}
	if _, err := New(good, func(int) Node { return nil }); err == nil {
		t.Fatal("nil node accepted")
	}
}

func TestSendOnBadPortPanics(t *testing.T) {
	net, err := New(Config{
		Graph: topology.Ring(2),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  8,
	}, func(int) Node {
		return &funcNode{init: func(ctx *Context) {
			defer func() {
				if recover() == nil {
					t.Error("send on port 5 did not panic")
				}
			}()
			ctx.Send(5, "x")
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesAndPorts(t *testing.T) {
	var outDeg, inDeg int
	net, err := New(Config{
		Graph: topology.Star(4),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  9,
	}, func(i int) Node {
		if i != 0 {
			return &funcNode{}
		}
		return &funcNode{init: func(ctx *Context) {
			outDeg = ctx.OutDegree()
			inDeg = ctx.InDegree()
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if outDeg != 3 || inDeg != 3 {
		t.Fatalf("centre degrees = out %d in %d, want 3/3", outDeg, inDeg)
	}
}

func TestInPortIdentifiesSender(t *testing.T) {
	// On a bidirectional ring each node has two in-ports; check the port
	// passed to OnMessage matches the topology's In() ordering.
	type portRecord struct{ port int }
	records := make(map[int][]portRecord)
	net, err := New(Config{
		Graph: topology.BiRing(3),
		Links: channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:  10,
	}, func(i int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				for p := 0; p < ctx.OutDegree(); p++ {
					ctx.Send(p, i)
				}
			},
			onMessage: func(ctx *Context, port int, payload any) {
				records[i] = append(records[i], portRecord{port: port})
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(records[i]) != 2 {
			t.Fatalf("node %d received %d messages, want 2", i, len(records[i]))
		}
		if records[i][0].port == records[i][1].port {
			t.Fatalf("node %d saw the same in-port twice", i)
		}
	}
}

// TestInPortMatchesInAdjacency checks every delivery's in-port against
// the topology on graphs whose edge insertion order differs from the
// (sender, out-port) order the network wires links in, over point-to-point
// links and over the local-broadcast medium.
func TestInPortMatchesInAdjacency(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"biring":   topology.BiRing(5),
		"complete": topology.Complete(4),
		"star":     topology.Star(5),
	}
	for _, radio := range []bool{false, true} {
		for name, g := range graphs {
			checkInPorts(t, name, g, radio)
		}
	}
}

func checkInPorts(t *testing.T, name string, g *topology.Graph, radio bool) {
	t.Helper()
	cfg := Config{Graph: g, Seed: 13, LocalBroadcast: radio}
	if !radio {
		cfg.Links = channel.RandomDelayFactory(dist.NewExponential(1))
	}
	deliveries := 0
	net, err := New(cfg, func(i int) Node {
		return &funcNode{
			init: func(ctx *Context) { ctx.Broadcast(i) },
			onMessage: func(ctx *Context, port int, payload any) {
				deliveries++
				if from := g.In(i)[port]; from != payload.(int) {
					t.Errorf("%s (radio %v): node %d got node %d's message on in-port %d, which is node %d's", name, radio, i, payload, port, from)
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if deliveries != g.EdgeCount() {
		t.Fatalf("%s (radio %v): %d deliveries, want %d", name, radio, deliveries, g.EdgeCount())
	}
}

// countingTracer counts callbacks and mints sequential refs, recording the
// cause ref handed in with each so tests can check exact attribution.
type countingTracer struct {
	sent, delivered, timers, decisions int
	next                               EventID
	causes                             []TraceRef
}

func (c *countingTracer) ref() TraceRef {
	c.next++
	return TraceRef{ID: c.next}
}

func (c *countingTracer) MessageSent(_ simtime.Time, _, _ int, _ any, cause TraceRef) TraceRef {
	c.sent++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func (c *countingTracer) MessageDelivered(_ simtime.Time, _, _ int, _ any, send TraceRef) TraceRef {
	c.delivered++
	c.causes = append(c.causes, send)
	return c.ref()
}

func (c *countingTracer) TimerFired(_ simtime.Time, _, _ int, cause TraceRef) TraceRef {
	c.timers++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func (c *countingTracer) Decision(_ simtime.Time, _ int, _ string, cause TraceRef) TraceRef {
	c.decisions++
	c.causes = append(c.causes, cause)
	return c.ref()
}

func TestTracerSeesEverything(t *testing.T) {
	tr := &countingTracer{}
	net, err := New(Config{
		Graph:  topology.Ring(2),
		Links:  channel.RandomDelayFactory(dist.NewDeterministic(1)),
		Seed:   11,
		Tracer: tr,
	}, func(i int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				ctx.Send(0, "x")
				ctx.SetLocalTimer(1, 0)
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if tr.sent != 2 || tr.delivered != 2 || tr.timers != 2 {
		t.Fatalf("tracer = %+v", tr)
	}
	m := net.Metrics()
	if m.MessagesSent != 2 || m.MessagesDelivered != 2 || m.TimersFired != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHorizonLimitsRun(t *testing.T) {
	net := ringOfRelays(t, 5, 12)
	if err := net.Run(10, 0); err != nil {
		t.Fatal(err)
	}
	if net.Now() != 10 {
		t.Fatalf("time = %v, want horizon 10", net.Now())
	}
}
