package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"abenet/internal/service"
)

func TestPlanRepeatsForASeedAndDiffersAcrossSeeds(t *testing.T) {
	gen := func(seed uint64) []pair {
		p := plan{seed: seed, stream: streamFresh, fixtures: 11}
		out := make([]pair, 500)
		for i := range out {
			out[i] = p.at(uint64(i))
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different plans")
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 7 and 8 share %d of %d pairs", same, len(a))
	}
	seen := map[uint64]bool{}
	for _, p := range a {
		if seen[p.seed] {
			t.Fatalf("pair seed %d repeats within one plan", p.seed)
		}
		seen[p.seed] = true
	}
	for start := 0; start+11 <= len(a); start += 11 {
		block := map[int]bool{}
		for _, p := range a[start : start+11] {
			block[p.fixture] = true
		}
		if len(block) != 11 {
			t.Fatalf("requests %d..%d name %d of the 11 fixtures, want each once", start, start+10, len(block))
		}
	}
	if a[0].fixture == a[11].fixture && a[1].fixture == a[12].fixture && a[2].fixture == a[13].fixture {
		t.Fatal("consecutive blocks share their fixture order")
	}
}

func TestRequestBodyCarriesSpecAndSeed(t *testing.T) {
	fx, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	p := plan{seed: 3, stream: streamFresh, fixtures: len(fx)}.at(5)
	var req service.RunRequest
	if err := json.Unmarshal(requestBody(fx, p), &req); err != nil {
		t.Fatal(err)
	}
	if req.Seed == nil || *req.Seed != p.seed || !req.Wait {
		t.Fatalf("request = %+v, want seed %d and wait", req, p.seed)
	}
	if !bytes.Equal(req.Spec, bytes.TrimSpace(fx[p.fixture].raw)) {
		t.Fatal("request spec differs from the fixture")
	}
}

func TestRingOrderIsASeededPermutation(t *testing.T) {
	a := ringOrder(1)
	if !reflect.DeepEqual(a, ringOrder(1)) {
		t.Fatal("the same seed gave different orders")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		seen[s] = true
	}
	if len(a) != len(ringSeeds) || len(seen) != len(ringSeeds) {
		t.Fatalf("order %v is not a permutation of %v", a, ringSeeds)
	}
	for s := range seen {
		if !contains(ringSeeds, s) {
			t.Fatalf("order %v has seed %d outside %v", a, s, ringSeeds)
		}
	}
}

func contains(xs []uint64, x uint64) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := tailPercentile(ramp(1000), 0.99); !ok || v != 990 {
		t.Fatalf("n=1000: p99 = %v, ok = %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := tailPercentile(ramp(999), 0.99); ok {
		t.Fatal("n=999: p99 has only 9 samples beyond it but was accepted")
	}
	if _, ok := tailPercentile(ramp(50), 0.99); ok {
		t.Fatal("n=50: p99 accepted")
	}
	if _, ok := tailPercentile(nil, 0.99); ok {
		t.Fatal("no samples: p99 accepted")
	}
	if got := percentile(ramp(5), 0.5); got != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	const a, b, c = 0, 1, 2
	sp := newSpans(3)
	ns := func(v int) time.Duration { return time.Duration(v) }
	sp.begin(a, ns(0))
	sp.begin(b, ns(10)) // b covers 10..30
	sp.end(ns(30))
	sp.begin(b, ns(40)) // b covers 40..60, c inside covers 45..50
	sp.begin(c, ns(45))
	sp.end(ns(50))
	sp.end(ns(60))
	sp.end(ns(100))
	want := []time.Duration{100 - 20 - 20, 20 + 20 - 5, 5}
	if !reflect.DeepEqual(sp.self, want) {
		t.Fatalf("self times = %v, want %v", sp.self, want)
	}
	if !reflect.DeepEqual(sp.calls, []uint64{1, 2, 1}) {
		t.Fatalf("calls = %v, want [1 2 1]", sp.calls)
	}
	var total time.Duration
	for _, d := range sp.self {
		total += d
	}
	if total != 100 {
		t.Fatalf("self times sum to %v, want the root span's 100", total)
	}
}

// TestFailureAccounting drives one phase against a server that answers
// request 0 with a finished run, 1 with a 503, 2 by dropping the
// connection, 3 with a failed job and 4 with a finished run whose metrics
// are wrong, and checks each lands in its own failure bucket.
func TestFailureAccounting(t *testing.T) {
	done := `{"id":"r","status":"done","cache_hits":0,"result":{"metrics":{"messages":%s}}}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Seed == nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		switch *req.Seed {
		case 0:
			w.Write([]byte(fmt.Sprintf(done, "4")))
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"service: job queue is full"}`))
		case 2:
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		case 3:
			w.Write([]byte(`{"id":"r","status":"failed","error":"boom"}`))
		case 4:
			w.Write([]byte(fmt.Sprintf(done, "5")))
		}
	}))
	defer srv.Close()

	p := phase{
		hc:     srv.Client(),
		url:    srv.URL,
		body:   func(i uint64) []byte { return []byte(fmt.Sprintf(`{"spec":{},"seed":%d}`, i)) },
		verify: func(uint64) bool { return true },
		limit:  5,
	}
	xs, _ := p.run()
	rep := newReport()
	tallyPhase(rep, xs)
	// The result check, as verifyFresh does it: a direct run gave 4.
	for _, x := range xs {
		if x.metrics != nil && x.metrics["messages"] != 4 {
			rep.tally.reclassify(failWrong)
		}
	}
	want := map[string]int{failRefused: 1, failTransport: 1, failJob: 1, failWrong: 1}
	if rep.tally.attempted != 5 || !reflect.DeepEqual(rep.tally.failed, want) {
		t.Fatalf("attempted %d, failed %v; want 5 attempted, failed %v", rep.tally.attempted, rep.tally.failed, want)
	}
	if got := rep.tally.frac(); got != 0.8 {
		t.Fatalf("failed_frac = %v, want 0.8", got)
	}
	res, err := buildResult(rep, true)
	if err != nil || res.Correct || res.Failed != 4 {
		t.Fatalf("result = %+v, %v; want incorrect with 4 failures", res, err)
	}
}

func TestClassifyResponse(t *testing.T) {
	cases := []struct {
		code   int
		err    error
		status string
		want   string
	}{
		{200, nil, "done", ""},
		{503, nil, "", failRefused},
		{0, errors.New("connection reset"), "", failTransport},
		{200, nil, "failed", failJob},
		{202, nil, "running", failJob},
		{400, nil, "", failJob},
	}
	for _, c := range cases {
		if got := classifyResponse(c.code, c.err, c.status); got != c.want {
			t.Errorf("classifyResponse(%d, %v, %q) = %q, want %q", c.code, c.err, c.status, got, c.want)
		}
	}
}

func TestParseHeadStopsAtResult(t *testing.T) {
	body := []byte(`{"id":"run-1","status":"done","protocol":"election","seed":9,"cache_hits":2,"result":{"metrics":{"x":1}},"error":"ignored"}`)
	h, err := parseHead(body)
	if err != nil {
		t.Fatal(err)
	}
	if h != (respHead{Status: "done", CacheHits: 2}) {
		t.Fatalf("head = %+v", h)
	}
	m, err := resultMetrics(body)
	if err != nil || m["x"] != 1 {
		t.Fatalf("metrics = %v, %v", m, err)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestFixturesLoad(t *testing.T) {
	fx, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	if len(fx) != 11 {
		t.Fatalf("%d fixtures, want the 11 single-run scenarios", len(fx))
	}
}

// TestTracedServerRecordsLayers sends three fresh requests through a
// traced server and checks every layer saw each of them once.
func TestTracedServerRecordsLayers(t *testing.T) {
	fx, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	lay := newServeLayers()
	srv, err := startServer(t.TempDir(), lay)
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient()
	pl := plan{seed: 1, stream: streamFresh, fixtures: len(fx)}
	xs, _ := phase{
		hc:     hc,
		url:    srv.url,
		body:   func(i uint64) []byte { return requestBody(fx, pl.at(i)) },
		verify: func(uint64) bool { return true },
		limit:  3,
	}.run()
	if err := closeServer(hc, srv, ""); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	tallyPhase(rep, xs)
	verifyFresh(rep, fx, pl, xs)
	if rep.tally.attempted != 3 || rep.tally.failures() != 0 {
		t.Fatalf("attempted %d, failed %v", rep.tally.attempted, rep.tally.failed)
	}
	if len(lay.handler) != 3 || len(lay.queueWait) != 3 || lay.puts != 3 || lay.gets != 3 {
		t.Fatalf("layers saw %d handler calls, %d jobs, %d puts, %d gets; want 3 each",
			len(lay.handler), len(lay.queueWait), lay.puts, lay.gets)
	}
}
