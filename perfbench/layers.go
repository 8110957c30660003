package main

import (
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// The ring composition's span layers. Spans nest as the calls do:
// network.New covers node and link construction; Network.Run covers the
// protocol handlers, which cover link sends, which cover delay sampling.
const (
	layerNew = iota
	layerNodeNew
	layerLinkNew
	layerRun
	layerHandler
	layerSend
	layerSample
	numRingLayers
)

// timedDist times every Sample of the wrapped distribution.
type timedDist struct {
	inner dist.Dist
	sp    *spans
}

func (d timedDist) Sample(r *rng.Source) float64 {
	d.sp.enter(layerSample)
	v := d.inner.Sample(r)
	d.sp.exit()
	return v
}

func (d timedDist) Mean() float64 { return d.inner.Mean() }
func (d timedDist) Name() string  { return d.inner.Name() }

// timedLink times every Send of the wrapped link.
type timedLink struct {
	inner channel.Link
	sp    *spans
}

func (l *timedLink) Send(payload any) simtime.Duration {
	l.sp.enter(layerSend)
	d := l.inner.Send(payload)
	l.sp.exit()
	return d
}

func (l *timedLink) Stats() channel.Stats { return l.inner.Stats() }
func (l *timedLink) MeanDelay() float64   { return l.inner.MeanDelay() }

// timedLinks wraps a link factory: each construction is timed and each
// link is wrapped. Wrappers come from a slice allocated before
// network.New, so the allocation counts measured over New are the
// program's own.
func timedLinks(inner channel.Factory, sp *spans, wrappers []timedLink) channel.Factory {
	next := 0
	return func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
		sp.enter(layerLinkNew)
		l := inner(k, r, deliver)
		sp.exit()
		w := &wrappers[next]
		next++
		*w = timedLink{inner: l, sp: sp}
		return w
	}
}

// timedNode times the protocol handlers of the wrapped node.
type timedNode struct {
	inner network.Node
	sp    *spans
}

func (n *timedNode) Init(ctx *network.Context) {
	n.sp.enter(layerHandler)
	n.inner.Init(ctx)
	n.sp.exit()
}

func (n *timedNode) OnMessage(ctx *network.Context, inPort int, payload any) {
	n.sp.enter(layerHandler)
	n.inner.OnMessage(ctx, inPort, payload)
	n.sp.exit()
}

func (n *timedNode) OnTimer(ctx *network.Context, kind int) {
	n.sp.enter(layerHandler)
	n.inner.OnTimer(ctx, kind)
	n.sp.exit()
}
