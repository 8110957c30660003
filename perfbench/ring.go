package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/runner"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// ringN is the ring size of ring_1e6: the top rung of experiment E16.
const ringN = 1_000_000

// ringSeeds are the election seeds of every ring_1e6 run. The work of one
// election at n = 10⁶ varies 2.5× with its seed (2–6 M kernel events), so
// a handful of seed-dependent elections cannot give a steady median; the
// list is therefore fixed, and the workload seed sets the order in which
// the elections run.
var ringSeeds = []uint64{1, 2, 3}

// warmUpN is the ring size of the set-up election that warms the heap and
// the code paths before the first timed election. It runs at the first
// fixed seed, so every set-up does the same work.
const warmUpN = 100_000

// ringSetupReps is how many times ring_1e6 repeats its set-up; setup_s is
// the median.
const ringSetupReps = 5

// ringProtocol is E16's parameterisation: A0 = 1/n with tick interval n,
// so one election costs O(n) kernel events.
func ringProtocol(n int) runner.Election {
	return runner.Election{A0: 1 / float64(n), TickInterval: float64(n)}
}

// ringDigest identifies one election's outcome. Equal digests for one seed
// across runs, and between runner.Run and the traced composition, show
// that both executed the same simulation.
type ringDigest struct {
	Events   uint64  `json:"events"`
	Messages uint64  `json:"messages"`
	Leader   int     `json:"leader"`
	Time     float64 `json:"time"`
}

func digestOf(r runner.Report) ringDigest {
	return ringDigest{Events: r.Events, Messages: r.Messages, Leader: r.LeaderIndex, Time: r.Time}
}

// ringOrder permutes ringSeeds by the workload seed (Fisher–Yates).
func ringOrder(seed uint64) []uint64 {
	order := append([]uint64(nil), ringSeeds...)
	for i := len(order) - 1; i > 0; i-- {
		j := int(derive(seed, streamOrder, uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// checkElection validates one runner.Run election: no error, exactly one
// leader, no invariant violations.
func checkElection(rep runner.Report, err error) error {
	switch {
	case err != nil:
		return err
	case rep.Leaders != 1 || !rep.Elected:
		return fmt.Errorf("%d leaders, want exactly 1", rep.Leaders)
	case len(rep.Violations) > 0:
		return fmt.Errorf("invariant violations: %v", rep.Violations)
	}
	return nil
}

func runRing(cfg config) (*report, error) {
	rep := newReport()
	proto := ringProtocol(ringN)

	// Set-up: derive the election order and run one warm-up election.
	var setups []float64
	var order []uint64
	for i := 0; i < ringSetupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		order = ringOrder(cfg.seed)
		w := runner.Env{N: warmUpN, Seed: ringSeeds[0]}
		if err := checkElection(runner.Run(w, ringProtocol(warmUpN))); err != nil {
			return nil, fmt.Errorf("warm-up election: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", percentile(setups, 0.5))

	digests := newDigestBook(cfg)
	// verify returns the failure reason for one runner.Run election, or "".
	verify := func(seed uint64, r runner.Report, err error) string {
		if err := checkElection(r, err); err != nil {
			rep.note("seed %d: %v", seed, err)
			return failRun
		}
		if err := digests.check(seed, digestOf(r)); err != nil {
			rep.note("seed %d: %v", seed, err)
			return failWrong
		}
		return ""
	}
	record := func(reason string) {
		if reason == "" {
			rep.tally.ok()
		} else {
			rep.tally.fail(reason)
		}
	}

	if cfg.traced {
		if err := ringTraced(rep, order, proto, verify, record); err != nil {
			return nil, err
		}
	} else {
		// Whole passes over the seed list, so every run measures the same
		// elections; another pass only if it fits in the measured time.
		var walls []float64
		var busy time.Duration
		start := time.Now()
		for {
			passStart := time.Now()
			for _, s := range order {
				// Each election starts on a collected heap with its memory
				// returned to the OS, as a one-shot run in a fresh process
				// does; otherwise an election inherits whatever its
				// predecessor left mapped, and the seed order moves the
				// times.
				debug.FreeOSMemory()
				t0 := time.Now()
				r, err := runner.Run(runner.Env{N: ringN, Seed: s}, proto)
				d := time.Since(t0)
				busy += d
				walls = append(walls, d.Seconds())
				record(verify(s, r, err))
				rep.note("election seed %d: %.3f s, %d events, %d messages", s, d.Seconds(), r.Events, r.Messages)
			}
			if time.Since(start)+time.Since(passStart) > cfg.measure {
				break
			}
		}
		rep.set("latency_p50_ms", percentile(walls, 0.5)*1e3)
		rep.set("throughput_rps", float64(len(walls))/busy.Seconds())
		rep.set("peak_rss_mb", peakRSSMB())
		rep.note("latency_p50_ms is the median wall time of one runner.Run election at n=%d over %d elections (%d seeds)", ringN, len(walls), len(order))
		rep.note("throughput_rps is elections completed per second of election wall time")
		rep.note("setup_s is the median of %d set-ups (order derivation + one n=%d warm-up election)", ringSetupReps, warmUpN)
	}
	if err := digests.save(); err != nil {
		rep.note("digest book not saved: %v", err)
	}
	return rep, nil
}

// ringTraced runs one pass over the seeds, each election twice: once
// through runner.Run untraced, once composed from its layers with every
// layer call timed. The two digests must match.
func ringTraced(rep *report, order []uint64, proto runner.Election,
	verify func(uint64, runner.Report, error) string, record func(string)) error {
	var untraced, traced time.Duration
	var agg ringLayers
	sp := newSpans(numRingLayers)
	for _, s := range order {
		debug.FreeOSMemory()
		t0 := time.Now()
		r, err := runner.Run(runner.Env{N: ringN, Seed: s}, proto)
		untraced += time.Since(t0)
		reason := verify(s, r, err)

		debug.FreeOSMemory()
		t0 = time.Now()
		d, err := composeElection(s, sp, &agg)
		traced += time.Since(t0)
		switch {
		case err != nil:
			return fmt.Errorf("traced election, seed %d: %w", s, err)
		case reason == "" && d != digestOf(r):
			reason = failWrong
			rep.note("seed %d: traced composition digest %+v != runner.Run digest %+v", s, d, digestOf(r))
		}
		record(reason)
	}
	nodes := float64(ringN * len(order))
	rep.set("topology.build_s", agg.topology.Seconds())
	rep.set("network.new_s", sp.self[layerNew].Seconds())
	rep.set("network.new_allocs_per_node", float64(agg.newAllocs)/nodes)
	rep.set("network.new_bytes_per_node", float64(agg.newBytes)/nodes)
	rep.set("core.node_new_s", sp.self[layerNodeNew].Seconds())
	rep.set("channel.link_new_s", sp.self[layerLinkNew].Seconds())
	rep.set("channel.links", float64(sp.calls[layerLinkNew]))
	rep.set("network.run_s", agg.run.Seconds())
	rep.set("sim.events", float64(agg.events))
	rep.set("sim.run_events_per_s", float64(agg.events)/agg.run.Seconds())
	rep.set("sim.self_s", sp.self[layerRun].Seconds())
	rep.set("sim.queue_peak", float64(agg.queuePeak))
	rep.set("core.handler_s", sp.self[layerHandler].Seconds())
	rep.set("core.handler_calls", float64(sp.calls[layerHandler]))
	rep.set("channel.send_s", sp.self[layerSend].Seconds())
	rep.set("channel.sends", float64(sp.calls[layerSend]))
	rep.set("dist.sample_s", sp.self[layerSample].Seconds())
	rep.set("dist.samples", float64(sp.calls[layerSample]))
	rep.set("runner.run_s", untraced.Seconds())
	rep.set("runtime.gc_cpu_s", agg.gcCPU)
	rep.set("runtime.gc_cycles", float64(agg.gcCycles))
	rep.set("bench.trace_overhead", traced.Seconds()/untraced.Seconds()-1)
	rep.note("per-layer times are totals over %d elections at n=%d; each is self time, so sim.self_s + core.handler_s + channel.send_s + dist.sample_s = network.run_s", len(order), ringN)
	return nil
}

// ringLayers accumulates the traced composition's measurements that are
// not spans.
type ringLayers struct {
	topology, run       time.Duration
	newAllocs, newBytes uint64
	events              uint64
	queuePeak           int
	gcCPU               float64
	gcCycles            uint64
}

// composeElection runs the election runner.Run would run for seed, built
// from its layers — topology.Ring, network.New with the core election
// node, Network.Run — with every call into a layer timed by sp.
func composeElection(seed uint64, sp *spans, agg *ringLayers) (ringDigest, error) {
	n := ringN
	// Wrappers are allocated before the measured construction.
	nodeWrappers := make([]timedNode, n)
	linkWrappers := make([]timedLink, n)
	nodes := make([]*core.ElectionNode, n)
	nodeCfg := core.ElectionNodeConfig{
		RingSize:     n,
		A0:           1 / float64(n),
		TickInterval: float64(n),
		StopOnLeader: true,
	}
	var nodeErr error
	makeNode := func(i int) network.Node {
		sp.enter(layerNodeNew)
		node, err := core.NewElectionNode(nodeCfg)
		sp.exit()
		if err != nil {
			nodeErr = err
		}
		nodes[i] = node
		nodeWrappers[i] = timedNode{inner: node, sp: sp}
		return &nodeWrappers[i]
	}
	gcCPU0, gcCycles0 := gcCounters()

	t0 := time.Now()
	g := topology.Ring(n)
	agg.topology += time.Since(t0)

	delay := timedDist{inner: dist.NewExponential(1), sp: sp}
	links := timedLinks(channel.RandomDelayFactory(delay), sp, linkWrappers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp.enter(layerNew)
	net, err := network.New(network.Config{Graph: g, Links: links, Seed: seed, Anonymous: true}, makeNode)
	sp.exit()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return ringDigest{}, err
	}
	if nodeErr != nil {
		return ringDigest{}, nodeErr
	}
	agg.newAllocs += m1.Mallocs - m0.Mallocs
	agg.newBytes += m1.TotalAlloc - m0.TotalAlloc

	k := net.Kernel()
	peak := 0
	k.SetObserver(func() {
		if q := k.QueueLen(); q > peak {
			peak = q
		}
	})
	t0 = time.Now()
	sp.enter(layerRun)
	err = net.Run(simtime.Forever, 50_000_000)
	sp.exit()
	agg.run += time.Since(t0)
	if err != nil {
		return ringDigest{}, err
	}
	gcCPU1, gcCycles1 := gcCounters()
	agg.gcCPU += gcCPU1 - gcCPU0
	agg.gcCycles += gcCycles1 - gcCycles0
	agg.events += k.Executed()
	agg.queuePeak = max(agg.queuePeak, peak)

	d := ringDigest{Events: k.Executed(), Messages: net.Metrics().MessagesSent, Leader: -1, Time: float64(net.Now())}
	leaders := 0
	for i, node := range nodes {
		if node.State() == core.Leader {
			leaders++
			d.Leader = i
		}
		if len(node.Violations) > 0 {
			return d, fmt.Errorf("node %d: invariant violations: %v", i, node.Violations)
		}
	}
	if leaders != 1 {
		return d, fmt.Errorf("%d leaders, want exactly 1", leaders)
	}
	return d, nil
}

// digestBook checks that an election seed gives the same digest on every
// run of the same code: within one process and, through a file under
// .bench_build keyed by the source digest, across processes.
type digestBook struct {
	path string
	seen map[uint64]ringDigest
}

func newDigestBook(cfg config) *digestBook {
	b := &digestBook{
		path: filepath.Join(cfg.root, ".bench_build", "ring-digests-"+cfg.source[:16]+".json"),
		seen: map[uint64]ringDigest{},
	}
	if data, err := os.ReadFile(b.path); err == nil {
		_ = json.Unmarshal(data, &b.seen) // an unreadable book starts empty
	}
	return b
}

func (b *digestBook) check(seed uint64, d ringDigest) error {
	if prev, ok := b.seen[seed]; ok && prev != d {
		return fmt.Errorf("digest %+v differs from an earlier run's %+v", d, prev)
	}
	b.seen[seed] = d
	return nil
}

func (b *digestBook) save() error {
	data, err := json.Marshal(b.seen)
	if err != nil {
		return err
	}
	tmp := b.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path)
}
