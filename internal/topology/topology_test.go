package topology

import (
	"testing"
	"testing/quick"

	"abenet/internal/rng"
)

func TestRingStructure(t *testing.T) {
	g := Ring(5)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.EdgeCount() != 5 {
		t.Fatalf("edges = %d, want 5", g.EdgeCount())
	}
	for i := 0; i < 5; i++ {
		out := g.Out(i)
		if len(out) != 1 || out[0] != (i+1)%5 {
			t.Fatalf("Out(%d) = %v", i, out)
		}
		in := g.In(i)
		if len(in) != 1 || in[0] != (i+4)%5 {
			t.Fatalf("In(%d) = %v", i, in)
		}
	}
	if !g.IsStronglyConnected() {
		t.Fatal("ring must be strongly connected")
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("ring diameter = %d, want 4", d)
	}
}

func TestRingMinSize(t *testing.T) {
	mustPanic(t, func() { Ring(1) })
	g := Ring(2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("2-ring must have both directed edges")
	}
}

func TestBiRing(t *testing.T) {
	g := BiRing(4)
	if g.EdgeCount() != 8 {
		t.Fatalf("edges = %d, want 8", g.EdgeCount())
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("biring(4) diameter = %d, want 2", d)
	}
}

func TestLine(t *testing.T) {
	g := Line(4)
	if g.EdgeCount() != 6 {
		t.Fatalf("edges = %d, want 6", g.EdgeCount())
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("line(4) diameter = %d, want 3", d)
	}
	single := Line(1)
	if single.EdgeCount() != 0 {
		t.Fatal("line(1) must have no edges")
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.OutDegree(0) != 5 {
		t.Fatalf("centre degree = %d", g.OutDegree(0))
	}
	for i := 1; i < 6; i++ {
		if g.OutDegree(i) != 1 {
			t.Fatalf("leaf %d degree = %d", i, g.OutDegree(i))
		}
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.EdgeCount() != 20 {
		t.Fatalf("edges = %d, want 20", g.EdgeCount())
	}
	if d := g.Diameter(); d != 1 {
		t.Fatalf("complete diameter = %d, want 1", d)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Every torus node has degree 4.
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) != 4 {
			t.Fatalf("torus node %d degree = %d, want 4", u, g.OutDegree(u))
		}
	}
	if !g.IsStronglyConnected() {
		t.Fatal("torus must be connected")
	}
	mustPanic(t, func() { Torus(2, 5) })
}

func TestHypercube(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	for u := 0; u < 8; u++ {
		if g.OutDegree(u) != 3 {
			t.Fatalf("node %d degree %d, want 3", u, g.OutDegree(u))
		}
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("hypercube(3) diameter = %d, want 3", d)
	}
	if Hypercube(0).N() != 1 {
		t.Fatal("hypercube(0) must be a single node")
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	root := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 2 + root.Intn(40)
		g := RandomConnected(n, 0.1, root.Derive("graph"))
		if !g.IsStronglyConnected() {
			t.Fatalf("trial %d: random graph on %d nodes not connected", trial, n)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(20, 0.2, rng.New(7))
	b := RandomConnected(20, 0.2, rng.New(7))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := 2 + int(nRaw)%30
		p := float64(pRaw%100) / 100
		g := RandomConnected(n, p, rng.New(seed))
		return g.IsStronglyConnected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSTree(t *testing.T) {
	g := Line(5)
	parent, depth := g.BFSTree(0)
	wantDepth := []int{0, 1, 2, 3, 4}
	for i := range wantDepth {
		if depth[i] != wantDepth[i] {
			t.Fatalf("depth = %v", depth)
		}
	}
	if parent[0] != -1 {
		t.Fatalf("root parent = %d", parent[0])
	}
	for i := 1; i < 5; i++ {
		if parent[i] != i-1 {
			t.Fatalf("parent = %v", parent)
		}
	}
}

func TestBFSTreeUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1) // 2 is unreachable
	_, depth := g.BFSTree(0)
	if depth[2] != -1 {
		t.Fatalf("unreachable node depth = %d", depth[2])
	}
	if g.IsStronglyConnected() {
		t.Fatal("graph with unreachable node reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph must be -1")
	}
}

func TestUnidirectionalRingNotSymmetric(t *testing.T) {
	g := Ring(4)
	if g.HasEdge(1, 0) {
		t.Fatal("unidirectional ring must not have reverse edges")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("missing forward edge")
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := New(3)
	mustPanic(t, func() { g.AddEdge(0, 0) }) // self-loop
	g.AddEdge(0, 1)
	mustPanic(t, func() { g.AddEdge(0, 1) }) // duplicate
	mustPanic(t, func() { g.AddEdge(0, 3) }) // out of range
	mustPanic(t, func() { g.AddEdge(-1, 0) })
}

func TestOutReturnsCopy(t *testing.T) {
	g := Ring(3)
	out := g.Out(0)
	out[0] = 99
	if g.Out(0)[0] == 99 {
		t.Fatal("Out exposed internal adjacency")
	}
}

func TestForEachOutMatchesOut(t *testing.T) {
	g := Complete(5)
	for u := 0; u < 5; u++ {
		var got []int
		g.ForEachOut(u, func(v int) { got = append(got, v) })
		want := g.Out(u)
		if len(got) != len(want) {
			t.Fatalf("ForEachOut length mismatch at %d", u)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ForEachOut order mismatch at %d", u)
			}
		}
	}
}

func TestEdgesOrderStable(t *testing.T) {
	g := Ring(4)
	edges := g.Edges()
	for i, e := range edges {
		if e.From != i || e.To != (i+1)%4 {
			t.Fatalf("Edges() = %v", edges)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Ring(3)
	// Corrupt the in-adjacency directly.
	g.in[1] = nil
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed corrupted in-adjacency")
	}
}

func TestAllFamiliesConnected(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":      Ring(6),
		"biring":    BiRing(6),
		"line":      Line(6),
		"star":      Star(6),
		"complete":  Complete(6),
		"torus":     Torus(3, 3),
		"hypercube": Hypercube(4),
	}
	for name, g := range graphs {
		if !g.IsStronglyConnected() {
			t.Errorf("%s not strongly connected", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestHamiltonianCycle(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"ring", Ring(8), true},
		{"biring", BiRing(8), true},
		{"complete", Complete(7), true},
		{"hypercube", Hypercube(4), true},
		{"torus", Torus(3, 4), true},
		{"line", Line(6), false},
		{"star", Star(6), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			order, ok := c.g.HamiltonianCycle()
			if ok != c.want {
				t.Fatalf("HamiltonianCycle ok = %v, want %v", ok, c.want)
			}
			if !ok {
				return
			}
			n := c.g.N()
			if len(order) != n || order[0] != 0 {
				t.Fatalf("order %v must visit all %d nodes starting at 0", order, n)
			}
			seen := make([]bool, n)
			for i, u := range order {
				if seen[u] {
					t.Fatalf("node %d visited twice", u)
				}
				seen[u] = true
				if v := order[(i+1)%n]; !c.g.HasEdge(u, v) {
					t.Fatalf("cycle uses missing edge %d->%d", u, v)
				}
			}
		})
	}
}

func TestRingEmbedding(t *testing.T) {
	// On the unidirectional ring the embedding is the identity: port 0
	// everywhere. This is what keeps ring-protocol trajectories on plain
	// rings byte-identical to the pre-embedding code.
	ports, err := Ring(9).RingEmbedding()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ports {
		if p != 0 {
			t.Fatalf("ring node %d successor port = %d, want 0", i, p)
		}
	}
	// On richer graphs every port must point at the cycle successor.
	for name, g := range map[string]*Graph{
		"biring": BiRing(8), "complete": Complete(6), "hypercube": Hypercube(3),
	} {
		ports, err := g.RingEmbedding()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		order, _ := g.HamiltonianCycle()
		succ := make([]int, g.N())
		for i, u := range order {
			succ[u] = order[(i+1)%g.N()]
		}
		for u, p := range ports {
			if got := g.Out(u)[p]; got != succ[u] {
				t.Fatalf("%s: node %d port %d leads to %d, want %d", name, u, p, got, succ[u])
			}
		}
	}
	if _, err := Line(5).RingEmbedding(); err == nil {
		t.Fatal("Line must not embed a ring")
	}
}

// TestPortsMatchAdjacency checks the port table against the adjacency
// lists on every family, including graphs whose insertion order differs
// from (tail, out-port) order: edge Start[u]+p is Out(u)[p], and its
// in-port is the tail's position in In of the head.
func TestPortsMatchAdjacency(t *testing.T) {
	custom := New(5)
	for _, e := range [][2]int{{3, 1}, {0, 1}, {1, 4}, {4, 0}, {2, 1}, {0, 3}, {1, 2}, {3, 0}} {
		custom.AddEdge(e[0], e[1])
	}
	graphs := map[string]*Graph{
		"ring":      Ring(6),
		"biring":    BiRing(5),
		"line":      Line(4),
		"star":      Star(5),
		"complete":  Complete(5),
		"torus":     Torus(3, 4),
		"hypercube": Hypercube(3),
		"random":    RandomConnected(12, 0.3, rng.New(4)),
		"custom":    custom,
		"single":    New(1),
	}
	for name, g := range graphs {
		pt := g.Ports()
		if len(pt.Start) != g.N()+1 || pt.Start[0] != 0 || int(pt.Start[g.N()]) != g.EdgeCount() {
			t.Fatalf("%s: Start = %v for %d nodes and %d edges", name, pt.Start, g.N(), g.EdgeCount())
		}
		if len(pt.To) != g.EdgeCount() || len(pt.InPort) != g.EdgeCount() {
			t.Fatalf("%s: %d heads and %d in-ports for %d edges", name, len(pt.To), len(pt.InPort), g.EdgeCount())
		}
		for u := 0; u < g.N(); u++ {
			out := g.Out(u)
			if got := int(pt.Start[u+1] - pt.Start[u]); got != len(out) {
				t.Fatalf("%s: node %d has %d ports, want %d", name, u, got, len(out))
			}
			for p, v := range out {
				e := pt.Start[u] + int32(p)
				if int(pt.To[e]) != v {
					t.Fatalf("%s: edge %d (%d port %d) leads to %d, want %d", name, e, u, p, pt.To[e], v)
				}
				in := g.In(v)
				if ip := pt.InPort[e]; ip < 0 || int(ip) >= len(in) || in[ip] != u {
					t.Fatalf("%s: edge %d->%d has in-port %d, In(%d) = %v", name, u, v, ip, v, in)
				}
			}
		}
	}
}

func TestInDegree(t *testing.T) {
	g := Star(5)
	if g.InDegree(0) != 4 || g.InDegree(3) != 1 {
		t.Fatalf("star in-degrees = %d, %d; want 4, 1", g.InDegree(0), g.InDegree(3))
	}
}
