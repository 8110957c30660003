package rng

import (
	"math"
	mathrand "math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("sequence diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestDeriveStable(t *testing.T) {
	root := New(7)
	a1 := root.Derive("node")
	b1 := root.Derive("link")
	// Derivation order must not matter.
	root2 := New(7)
	b2 := root2.Derive("link")
	a2 := root2.Derive("node")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("derive(node) depends on derivation order")
		}
		if b1.Uint64() != b2.Uint64() {
			t.Fatal("derive(link) depends on derivation order")
		}
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	a := root.Derive("a")
	b := root.Derive("b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams a and b agree on %d/1000 outputs", same)
	}
}

func TestDeriveIndexedDistinct(t *testing.T) {
	root := New(9)
	streams := make([]*Source, 8)
	for i := range streams {
		streams[i] = root.DeriveIndexed("node", i)
	}
	first := make(map[uint64]int)
	for i, s := range streams {
		v := s.Uint64()
		if j, ok := first[v]; ok {
			t.Fatalf("streams %d and %d share first output %d", i, j, v)
		}
		first[v] = i
	}
}

// TestStreamMatchesDeriveIndexed is the property that lets networks take
// their streams by value: Stream(label).At(i) equals *DeriveIndexed(label,
// i) for every label and index, the edge indices included.
func TestStreamMatchesDeriveIndexed(t *testing.T) {
	check := func(seed uint64, label string, index int) bool {
		root := New(seed)
		want := *root.DeriveIndexed(label, index)
		got := root.Stream(label).At(index)
		if got != want {
			t.Logf("seed %d, Stream(%q).At(%d) = %+v, DeriveIndexed = %+v", seed, label, index, got, want)
			return false
		}
		return true
	}
	for _, index := range []int{0, 1, -1, 2, 999_999, math.MaxInt32, math.MaxInt, math.MinInt} {
		for _, label := range []string{"", "node", "clock", "edge", "proc", "round", "ünïcode/label"} {
			if !check(7, label, index) {
				t.FailNow()
			}
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: mathrand.New(mathrand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDerivationGolden pins Derive, DeriveIndexed and Stream to the
// values the derivation has always produced: every recorded seed in the
// repository depends on them.
func TestDerivationGolden(t *testing.T) {
	root := New(42)
	for _, c := range []struct {
		label      string
		index      int
		out0, out1 uint64
	}{
		{"edge", 0, 0x8856fd793b5bd024, 0x21203eef92825658},
		{"node", 999999, 0x989d3aa56aa09d38, 0x9063510fe1e2aa7d},
		{"", -1, 0x5d3f6b2c2134c5c4, 0xb58337748abe6d2e},
		{"clock", math.MaxInt, 0x6a14cf73998cdbcb, 0x1f253e3deb0f7cc6},
		{"round", math.MinInt, 0x2ee12d89785a9b32, 0x3577b9f29fcf8a2e},
	} {
		s := root.Stream(c.label).At(c.index)
		if a, b := s.Uint64(), s.Uint64(); a != c.out0 || b != c.out1 {
			t.Errorf("Stream(%q).At(%d) starts %#x, %#x; want %#x, %#x", c.label, c.index, a, b, c.out0, c.out1)
		}
		d := root.DeriveIndexed(c.label, c.index)
		if a, b := d.Uint64(), d.Uint64(); a != c.out0 || b != c.out1 {
			t.Errorf("DeriveIndexed(%q, %d) starts %#x, %#x; want %#x, %#x", c.label, c.index, a, b, c.out0, c.out1)
		}
	}
	if got := root.Derive("faults").Uint64(); got != 0x97d5de145c688cbc {
		t.Errorf("Derive(%q) starts %#x, want 0x97d5de145c688cbc", "faults", got)
	}
}

// TestStreamAllocatesNothing pins the value path at zero allocations.
func TestStreamAllocatesNothing(t *testing.T) {
	root := New(3)
	var sink uint64
	avg := testing.AllocsPerRun(100, func() {
		s := root.Stream("node").At(5)
		sink += s.Uint64()
	})
	if avg != 0 {
		t.Errorf("Stream.At allocates %g objects, want 0", avg)
	}
	_ = sink
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) returned %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) badly skewed: counts[%d] = %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nSmallRangeUnbiased(t *testing.T) {
	r := New(6)
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(3)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3.0) > 0.01 {
			t.Fatalf("Uint64n(3) skewed: P(%d) = %v", v, frac)
		}
	}
}

func TestUint64nWithinBound(t *testing.T) {
	// Property: Uint64n(n) < n for arbitrary positive n.
	r := New(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(8)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if r.Bool(-2) {
		t.Fatal("Bool(-2) returned true")
	}
	if !r.Bool(2) {
		t.Fatal("Bool(2) returned false")
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want about 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want about 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformish(t *testing.T) {
	// Each position should hold each value about equally often.
	r := New(13)
	const trials = 30000
	var counts [3][3]int
	for i := 0; i < trials; i++ {
		p := r.Perm(3)
		for pos, v := range p {
			counts[pos][v]++
		}
	}
	for pos := 0; pos < 3; pos++ {
		for v := 0; v < 3; v++ {
			frac := float64(counts[pos][v]) / trials
			if math.Abs(frac-1.0/3.0) > 0.02 {
				t.Fatalf("Perm(3) position %d value %d frequency %v", pos, v, frac)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

func BenchmarkDerive(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Derive("node")
	}
}
