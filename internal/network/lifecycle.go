package network

import (
	"fmt"

	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// lifecycle drives a faults.Plan against a running network: node up/down
// state, scripted events, stochastic crash/recovery processes, link outage
// state, per-message link faults and the run's fault telemetry. A nil
// *lifecycle (Config.Faults == nil) disables every hook, leaving the
// network byte-identical to a fault-free build.
type lifecycle struct {
	net  *Network
	plan *faults.Plan
	root *rng.Source // derived off the run root; never advanced elsewhere

	down  []bool   // down[i]: node i is crashed
	epoch []uint64 // epoch[i]: incremented on crash; stale work is suppressed

	// Scripted outages are tracked per cause so a partition heal cannot
	// clobber an individually scripted link outage (and vice versa), and
	// the partition layer counts overlapping cuts so healing one
	// partition never raises an edge another still holds down. An edge is
	// down while either layer holds it. Both are indexed by the network's
	// edge index (see Network.ports).
	linkOut []bool // linkOut[e]: down via KindLinkDown
	cutOut  []int  // cutOut[e]: number of active partitions cutting the edge

	// linkRNG[e] draws edge e's per-message loss, duplication and reorder
	// decisions. It is the edge stream's Derive("impair"), which leaves
	// the edge stream itself untouched, so the link samples the delays of
	// the messages that get through exactly as on a fault-free edge. Nil
	// unless the plan has link faults: then no fault randomness is drawn.
	linkRNG []rng.Source
	hold    dist.Dist // the reorder hold-back law

	// openInterval[i] indexes tel.CrashIntervals while node i is down,
	// -1 otherwise.
	openInterval []int

	// preInit is true while the t = 0 events run, before any node's Init:
	// a recovery in that window must not restart-and-Init a node that has
	// never run (Run's own Init loop is about to do it).
	preInit bool

	tel faults.Telemetry
}

// newLifecycle validates the plan against the graph and prepares the
// per-node and per-edge state. Called from New after the topology is
// known but before links are wired.
func newLifecycle(net *Network, plan *faults.Plan, root *rng.Source) (*lifecycle, error) {
	n := net.cfg.Graph.N()
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	// Explicit per-edge events must name edges the topology actually has:
	// a direction typo would otherwise validate clean and then no-op,
	// reporting a fault-free run as if the outage had happened. (Partition
	// groups legitimately cross non-adjacent pairs and stay unchecked.)
	for i, ev := range plan.Events {
		if ev.Kind != faults.KindLinkDown && ev.Kind != faults.KindLinkUp {
			continue
		}
		if !net.cfg.Graph.HasEdge(ev.From, ev.To) {
			return nil, fmt.Errorf("faults: event %d (%s at t=%g): edge %d->%d is not in the topology",
				i, ev.Kind, ev.At, ev.From, ev.To)
		}
	}
	life := &lifecycle{
		net:          net,
		plan:         plan,
		root:         root.Derive("faults"),
		down:         make([]bool, n),
		epoch:        make([]uint64, n),
		linkOut:      make([]bool, len(net.ports.To)),
		cutOut:       make([]int, len(net.ports.To)),
		openInterval: make([]int, n),
	}
	for i := range life.openInterval {
		life.openInterval[i] = -1
	}
	if plan.HasLinkFaults() {
		life.linkRNG = make([]rng.Source, len(net.ports.To))
		life.hold = plan.ReorderDelay
		if life.hold == nil {
			life.hold = dist.NewExponential(1)
		}
	}
	return life, nil
}

// send hands payload to edge e's link through the plan's per-message link
// faults, drawn from the edge's fault stream in a fixed order: loss, then
// duplication, then reorder and its hold-back sample. rng.Bool draws
// nothing for p = 0, so a disabled axis leaves the stream untouched. A
// duplicate samples its own link delay, so it may overtake the original;
// held copies reach the link when the hold ends, whatever the edge's
// outage state by then.
func (life *lifecycle) send(e int, payload any) {
	link, r := life.net.links[e], &life.linkRNG[e]
	if r.Bool(life.plan.Loss) {
		life.tel.MessagesDropped++
		return
	}
	copies := 1
	if r.Bool(life.plan.Duplicate) {
		life.tel.MessagesDuplicated++
		copies = 2
	}
	if r.Bool(life.plan.Reorder) {
		life.tel.MessagesDelayed++
		hold := simtime.Duration(life.hold.Sample(r))
		life.net.kernel.After(hold, func() {
			for range copies {
				link.Send(payload)
			}
		})
		return
	}
	for range copies {
		link.Send(payload)
	}
}

// edgeDown reports whether edge e is down for any cause.
func (life *lifecycle) edgeDown(e int) bool {
	return life.linkOut[e] || life.cutOut[e] > 0
}

// applyAtTimeZero applies the scripted events at t = 0 before any node
// runs Init: a node crashed from the very start must not send its Init
// messages, and a partition scripted from t = 0 must cut them. Called
// from Run ahead of the Init loop.
func (life *lifecycle) applyAtTimeZero() {
	life.preInit = true
	for _, ev := range life.plan.SortedEvents() {
		if ev.At == 0 {
			life.apply(ev)
		}
	}
	life.preInit = false
}

// install schedules the plan's scripted timeline (t > 0; instants at zero
// were applied by applyAtTimeZero) and the stochastic crash/recovery
// processes on the kernel. Called from Run before the kernel starts.
func (life *lifecycle) install() {
	for _, ev := range life.plan.SortedEvents() {
		if ev.At == 0 {
			continue
		}
		ev := ev
		life.net.kernel.At(simtime.Time(ev.At), func() { life.apply(ev) })
	}
	if life.plan.CrashRate > 0 {
		crashStreams := life.root.Stream("crash")
		for i := 0; i < life.net.N(); i++ {
			r := crashStreams.At(i)
			life.scheduleCrash(i, &r)
		}
	}
}

// scheduleCrash arms node i's next stochastic crash (and, under
// crash-recovery, the subsequent restart) using the node's private fault
// stream — the chain is deterministic regardless of event interleaving.
// The chain only recovers outages it caused: a crash attempt landing on a
// node already scripted down is a no-op and simply re-arms, so stochastic
// churn never cuts a scripted outage short.
func (life *lifecycle) scheduleCrash(i int, r *rng.Source) {
	wait := simtime.Duration(r.ExpFloat64() / life.plan.CrashRate)
	life.net.kernel.After(wait, func() {
		if !life.crash(i) {
			life.scheduleCrash(i, r)
			return
		}
		if life.plan.RecoverRate <= 0 {
			return // crash-stop: the chain ends here
		}
		// The recovery belongs to this outage only: if a scripted event
		// recovered (and possibly re-crashed) the node in the meantime,
		// the epoch has moved on and the stale recovery must not fire.
		ep := life.epoch[i]
		outage := simtime.Duration(r.ExpFloat64() / life.plan.RecoverRate)
		life.net.kernel.After(outage, func() {
			if life.down[i] && life.epoch[i] == ep {
				life.recover(i)
			}
			life.scheduleCrash(i, r)
		})
	})
}

// apply executes one scripted event. Redundant transitions (crashing a
// node that is already down, raising a link that is already up) are no-ops,
// so scripted and stochastic faults compose without double counting.
func (life *lifecycle) apply(ev faults.Event) {
	switch ev.Kind {
	case faults.KindCrash:
		if !life.crash(ev.Node) {
			// The node is already down (a stochastic outage in progress).
			// The scripted crash takes ownership by bumping the epoch, so
			// the chain's pending recovery cannot cut the scripted window
			// short — only a scripted RecoverAt ends it now.
			life.epoch[ev.Node]++
		}
	case faults.KindRecover:
		life.recover(ev.Node)
	case faults.KindLinkDown:
		life.setLink(ev.From, ev.To, false)
	case faults.KindLinkUp:
		life.setLink(ev.From, ev.To, true)
	case faults.KindPartition:
		life.setCut(ev.Group, false)
	case faults.KindHeal:
		life.setCut(ev.Group, true)
	}
}

// crash takes node i down: its pending timers and queued processing become
// stale (epoch bump) and future deliveries are suppressed until recovery.
// It reports whether the node actually transitioned (false: already down).
func (life *lifecycle) crash(i int) bool {
	if life.down[i] {
		return false
	}
	life.down[i] = true
	life.epoch[i]++
	life.tel.Crashes++
	life.openInterval[i] = len(life.tel.CrashIntervals)
	life.tel.CrashIntervals = append(life.tel.CrashIntervals, faults.CrashInterval{
		Node:  i,
		Start: float64(life.net.kernel.Now()),
		End:   -1,
	})
	return true
}

// recover restarts node i as a fresh protocol instance (churn: the
// restarted process keeps no state, and timers of the old incarnation
// stay dead thanks to the epoch bump at crash time).
func (life *lifecycle) recover(i int) {
	if !life.down[i] {
		return
	}
	life.down[i] = false
	life.tel.Recoveries++
	if idx := life.openInterval[i]; idx >= 0 {
		life.tel.CrashIntervals[idx].End = float64(life.net.kernel.Now())
		life.openInterval[i] = -1
	}
	if life.preInit {
		// Crash+recover scripted at t = 0, before any node ran: the
		// original instance is still fresh and Run's Init loop will
		// initialise it exactly once — no restart needed.
		return
	}
	// The dead incarnation's processing backlog died with it: its queued
	// completions are epoch-suppressed, so the busy-server clock must not
	// make the fresh instance wait behind phantom work.
	life.net.nextFree[i] = life.net.kernel.Now()
	node := life.net.makeNode(i)
	if node == nil {
		panic(fmt.Sprintf("network: makeNode(%d) returned nil on fault recovery", i))
	}
	life.net.nodes[i] = node
	node.Init(&life.net.ctxs[i])
}

// setLink flips the scripted state of the directed edge from→to. Edges
// absent from the topology are ignored: plans are written against node
// sets, and partitions routinely name non-adjacent pairs.
func (life *lifecycle) setLink(from, to int, up bool) {
	ports := &life.net.ports
	for e := ports.Start[from]; e < ports.Start[from+1]; e++ {
		if int(ports.To[e]) == to {
			life.linkOut[e] = !up
		}
	}
}

// setCut takes every directed edge between group and its complement down
// (or back up) on the partition layer. Cuts are counted per edge, so
// overlapping partitions compose: an edge flows again only when every
// partition cutting it has healed. Individually scripted link outages live
// on their own layer and survive any heal. A stray heal with no matching
// partition is a no-op (the count never goes negative).
func (life *lifecycle) setCut(group []int, up bool) {
	inGroup := make([]bool, life.net.N())
	for _, v := range group {
		inGroup[v] = true
	}
	ports := &life.net.ports
	for u := range inGroup {
		for e := ports.Start[u]; e < ports.Start[u+1]; e++ {
			if inGroup[u] == inGroup[ports.To[e]] {
				continue
			}
			if up {
				if life.cutOut[e] > 0 {
					life.cutOut[e]--
				}
			} else {
				life.cutOut[e]++
			}
		}
	}
}

// suppressionCounter resolves which telemetry field stale queued work
// charges against (see the counter kinds in network.go).
func (life *lifecycle) suppressionCounter(kind int) *uint64 {
	if kind == timerCounter {
		return &life.tel.TimersSuppressed
	}
	return &life.tel.DeadLetters
}

// guard wraps deferred work for node v (processing-queue completions) so
// it is suppressed if the node crashed — or crashed and restarted — after
// the work was queued.
func (life *lifecycle) guard(v int, suppressed *uint64, work func()) func() {
	ep := life.epoch[v]
	return func() {
		if life.down[v] || life.epoch[v] != ep {
			*suppressed++
			return
		}
		work()
	}
}

// telemetry snapshots the run's fault telemetry.
func (life *lifecycle) telemetry() *faults.Telemetry {
	tel := life.tel
	tel.CrashIntervals = append([]faults.CrashInterval(nil), life.tel.CrashIntervals...)
	return &tel
}
