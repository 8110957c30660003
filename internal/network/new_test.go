package network_test

import (
	"fmt"
	"testing"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/topology"
)

// newElectionRing builds the E16 ring network on g: the core election node
// with A0 = 1/n and tick interval n, exponential link delays.
func newElectionRing(g *topology.Graph, seed uint64) (*network.Network, error) {
	n := g.N()
	cfg := core.ElectionNodeConfig{RingSize: n, A0: 1 / float64(n), TickInterval: float64(n), StopOnLeader: true}
	var nodeErr error
	net, err := network.New(network.Config{
		Graph:     g,
		Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:      seed,
		Anonymous: true,
	}, func(int) network.Node {
		node, err := core.NewElectionNode(cfg)
		if err != nil {
			nodeErr = err
		}
		return node
	})
	if err == nil {
		err = nodeErr
	}
	return net, err
}

// TestNewAllocationsPerNode pins network construction's allocation budget
// on a ring with the election node: per node, the node itself and, per
// edge, the delivery callback, the link and its batch-event handler —
// everything else is allocated once per network.
func TestNewAllocationsPerNode(t *testing.T) {
	const n = 1000
	g := topology.Ring(n)
	var buildErr error
	avg := testing.AllocsPerRun(5, func() {
		if _, err := newElectionRing(g, 1); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	if perNode := avg / n; perNode > 6 {
		t.Errorf("network.New allocates %.2f objects per node, want at most 6", perNode)
	}
}

// BenchmarkNetworkNew measures network construction alone (the topology
// is built once, outside the timer) for the E16 election ring.
func BenchmarkNetworkNew(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := topology.Ring(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := newElectionRing(g, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}
