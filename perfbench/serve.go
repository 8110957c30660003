package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"abenet/internal/runner"
	"abenet/internal/service"
	"abenet/internal/spec"
	"abenet/internal/store"
)

// serve_fresh's load is one closed-loop client (see phase), because
// abe-serve callers wait for their reply. One, not two: the service writes
// each finished result to its disk tier while holding its mutex, so fresh
// submissions complete one at a time. On a 2-vCPU host, with the fixtures
// at the sizes of examples/specs, a second client added no throughput
// (about 190 req/s either way), put its wait for the other client's fsync
// into every latency, and made p50 swing more from run to run.
const (
	serveWorkers = 2
	// serveRetained bounds the service's finished-job history and memory
	// cache. The defaults (4096 jobs, 1024 results) are not reached within
	// a run at this workload's ~65 req/s, so peak RSS would grow with the
	// number of requests a run happened to complete; at 512 the retained
	// results reach their bound in the first seconds of a run and
	// peak_rss_mb measures the steady state.
	serveRetained = 512
	// freshSetupReps is how many times serve_fresh repeats its set-up (a
	// server start and one warm-up request per fixture); setup_s is the
	// median.
	freshSetupReps = 9
	// replayCap bounds how many measured requests a traced run replays
	// through the spec calls.
	replayCap = 1000
)

// tracedRequests is how many requests each half of a traced serve_fresh
// run sends. A fixed count, not a fixed time, so that the traced counts
// (store.puts, store.gets, service.jobs) repeat exactly for a seed.
func tracedRequests(cfg config) uint64 {
	return 20 * uint64(cfg.measure/time.Second)
}

// server is one in-process abe-serve: the service with a disk-backed
// persistent tier, behind its HTTP handler on a loopback listener.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan error
}

// startServer serves the API over the disk store in dir. A non-nil lay
// times the handler, the store and the queue.
func startServer(dir string, lay *serveLayers) (*server, error) {
	disk, err := store.OpenDisk[*service.Result](dir)
	if err != nil {
		return nil, err
	}
	opts := service.Options{Workers: serveWorkers, Persist: disk, JobHistory: serveRetained, CacheEntries: serveRetained}
	if lay != nil {
		opts.Persist = &timedStore{inner: disk, lay: lay}
		opts.BeforeJob = lay.beforeJob
	}
	svc := service.New(opts)
	handler := service.NewHandler(svc, service.HandlerOptions{})
	if lay != nil {
		handler = lay.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/runs",
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serve loop, then drains and
// closes the service.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

// newHTTPClient is the load generator's client: one keep-alive
// connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// respHead is the part of a job view read from every response.
type respHead struct {
	Status    string
	CacheHits int
}

// parseHead reads the top-level fields of a response body up to the
// result payload, which it does not decode.
func parseHead(body []byte) (respHead, error) {
	var h respHead
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return h, fmt.Errorf("response is not a JSON object")
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return h, err
		}
		var dst any
		switch tok {
		case "status":
			dst = &h.Status
		case "cache_hits":
			dst = &h.CacheHits
		case "result":
			return h, nil
		default:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return h, err
		}
	}
	return h, nil
}

// resultMetrics decodes the flattened metrics of a finished run.
func resultMetrics(body []byte) (map[string]float64, error) {
	var v struct {
		Result struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if v.Result.Metrics == nil {
		return nil, errors.New("response has no result metrics")
	}
	return v.Result.Metrics, nil
}

// exchange is one request of a phase.
type exchange struct {
	index   uint64 // position in the phase's request sequence
	latency time.Duration
	reason  string // failure reason, "" for a finished run
	hits    int
	metrics map[string]float64 // decoded for verified responses only
}

// phase is one closed-loop load phase: the client sends request i+1 when
// the reply to request i has been read.
type phase struct {
	hc      *http.Client
	url     string
	body    func(i uint64) []byte
	verify  func(i uint64) bool // decode this response's metrics
	limit   uint64              // stop after this many requests (0: none)
	measure time.Duration       // stop issuing after this long (0: none)
}

// run drives the phase and returns its exchanges in sequence order and
// its wall time, from the first send to the last completion.
func (p phase) run() ([]exchange, time.Duration) {
	var xs []exchange
	start := time.Now()
	for i := uint64(0); p.limit == 0 || i < p.limit; i++ {
		if p.measure > 0 && time.Since(start) >= p.measure {
			break
		}
		xs = append(xs, p.exchange(i))
	}
	return xs, time.Since(start)
}

// exchange sends request i and times it until the body is fully read.
func (p phase) exchange(i uint64) exchange {
	x := exchange{index: i}
	t0 := time.Now()
	resp, err := p.hc.Post(p.url, "application/json", bytes.NewReader(p.body(i)))
	var body []byte
	code := 0
	if err == nil {
		code = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	x.latency = time.Since(t0)
	var head respHead
	if err == nil {
		// An unparseable body leaves the status empty: a failed job.
		head, _ = parseHead(body)
	}
	x.reason = classifyResponse(code, err, head.Status)
	x.hits = head.CacheHits
	if x.reason == "" && p.verify(i) {
		if x.metrics, err = resultMetrics(body); err != nil {
			x.reason = failJob
		}
	}
	return x
}

// latencies returns the phase's request latencies in seconds.
func latencies(xs []exchange) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.latency.Seconds()
	}
	return out
}

func meanLatency(xs []exchange) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x.latency.Seconds()
	}
	return sum / float64(len(xs))
}

// setE2E records a phase's end-to-end metrics and its sample counts.
func setE2E(rep *report, xs []exchange, wall time.Duration, setups []float64) {
	ok := 0
	for _, x := range xs {
		if x.reason == "" {
			ok++
		}
	}
	lat := latencies(xs)
	rep.set("setup_s", percentile(setups, 0.5))
	rep.set("latency_p50_ms", percentile(lat, 0.5)*1e3)
	rep.set("throughput_rps", float64(ok)/wall.Seconds())
	rep.set("peak_rss_mb", peakRSSMB())
	rep.note("latency is from send until the response body is read; %d requests from one closed-loop client over %.2f s", len(xs), wall.Seconds())
	if p99, ok := tailPercentile(lat, 0.99); ok {
		rep.note("metric latency_p99_ms %.6g ms (n=%d, reported because >= %d samples lie beyond it)", p99*1e3, len(lat), minTail)
	} else {
		rep.note("latency_p99_ms not reported: fewer than %d of %d samples lie beyond p99", minTail, len(lat))
	}
	rep.note("setup_s is the median of %d set-ups", len(setups))
}

// tallyPhase counts a phase's exchanges. Every request is a fresh pair,
// so a finished response that reports a cache hit is wrong.
func tallyPhase(rep *report, xs []exchange) {
	for _, x := range xs {
		switch {
		case x.reason != "":
			rep.tally.fail(x.reason)
		case x.hits != 0:
			rep.tally.fail(failWrong)
		default:
			rep.tally.ok()
		}
	}
}

// hitDelta is how many submissions between two stats snapshots were
// served from either cache tier.
func hitDelta(a, b service.Stats) int {
	return (b.MemoryHits + b.StoreHits) - (a.MemoryHits + a.StoreHits)
}

// freshServer starts a server over a new store directory and sends one
// warm-up request per fixture, from a stream the measured plan never uses.
func freshServer(cfg config, hc *http.Client, fx []fixture, lay *serveLayers, rep uint64) (*server, string, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "fresh-")
	if err != nil {
		return nil, "", err
	}
	srv, err := startServer(dir, lay)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	warm := phase{
		hc:  hc,
		url: srv.url,
		body: func(i uint64) []byte {
			return requestBody(fx, pair{fixture: int(i), seed: derive(cfg.seed, streamWarmUp, rep<<16+i)})
		},
		verify: func(uint64) bool { return false },
		limit:  uint64(len(fx)),
	}
	xs, _ := warm.run()
	for _, x := range xs {
		if x.reason != "" {
			srv.close()
			os.RemoveAll(dir)
			return nil, "", fmt.Errorf("warm-up request %d: %s", x.index, x.reason)
		}
	}
	return srv, dir, nil
}

func runServeFresh(cfg config) (*report, error) {
	rep := newReport()
	fx, err := loadFixtures()
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	plan := plan{seed: cfg.seed, stream: streamFresh, fixtures: len(fx)}

	var setups []float64
	var srv *server
	var dir string
	for r := uint64(0); r < freshSetupReps; r++ {
		if srv != nil {
			if err := closeServer(hc, srv, dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if srv, dir, err = freshServer(cfg, hc, fx, nil, r); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	measured := func(srv *server, from, limit uint64, d time.Duration) ([]exchange, time.Duration, service.Stats, service.Stats) {
		p := phase{
			hc:      hc,
			url:     srv.url,
			body:    func(i uint64) []byte { return requestBody(fx, plan.at(from+i)) },
			verify:  func(i uint64) bool { return sampled(cfg.seed, from+i) },
			limit:   limit,
			measure: d,
		}
		s0 := srv.svc.Stats()
		xs, wall := p.run()
		for i := range xs {
			xs[i].index += from
		}
		return xs, wall, s0, srv.svc.Stats()
	}
	checkFresh := func(xs []exchange, s0, s1 service.Stats) {
		tallyPhase(rep, xs)
		if hits := hitDelta(s0, s1); hits != 0 {
			rep.tally.reclassify(failWrong)
			rep.note("cache hit ratio is not 0: %d hits", hits)
		}
		verifyFresh(rep, fx, plan, xs)
	}

	if !cfg.traced {
		xs, wall, s0, s1 := measured(srv, 0, 0, cfg.measure)
		if err := closeServer(hc, srv, dir); err != nil {
			return nil, err
		}
		checkFresh(xs, s0, s1)
		setE2E(rep, xs, wall, setups)
		return rep, nil
	}

	// Traced: a fixed number of requests untraced, then as many traced on
	// a second server, for the overhead; the per-layer split comes from
	// the traced half, whose counts repeat exactly for a seed.
	n := tracedRequests(cfg)
	xsA, _, s0, s1 := measured(srv, 0, n, 0)
	if err := closeServer(hc, srv, dir); err != nil {
		return nil, err
	}
	checkFresh(xsA, s0, s1)
	lay := newServeLayers()
	if srv, dir, err = freshServer(cfg, hc, fx, lay, freshSetupReps); err != nil {
		return nil, err
	}
	lay.reset()
	gc0, cyc0 := gcCounters()
	xsB, _, s0, s1 := measured(srv, n, n, 0)
	gc1, cyc1 := gcCounters()
	bytesPer := storeBytesPerResult(dir)
	if err := closeServer(hc, srv, dir); err != nil {
		return nil, err
	}
	checkFresh(xsB, s0, s1)
	lay.report(rep)
	rep.set("store.bytes_per_result", bytesPer)
	rep.set("runtime.gc_cpu_s", gc1-gc0)
	rep.set("runtime.gc_cycles", float64(cyc1-cyc0))
	rep.set("bench.trace_overhead", meanLatency(xsB)/meanLatency(xsA)-1)
	if err := replay(rep, fx, plan, xsB); err != nil {
		return nil, err
	}
	return rep, nil
}

// verifyFresh checks the verified sample of a fresh phase: each response's
// metrics must equal a direct spec.Run of the same (fixture, seed) pair.
func verifyFresh(rep *report, fx []fixture, plan plan, xs []exchange) {
	checked := 0
	for _, x := range xs {
		if x.metrics == nil {
			continue
		}
		checked++
		p := plan.at(x.index)
		sp, err := spec.DecodeBytes(fx[p.fixture].raw)
		if err != nil {
			rep.tally.reclassify(failRun)
			rep.note("request %d: %v", x.index, err)
			continue
		}
		sp.Env.Seed = p.seed
		r, err := sp.Run()
		switch {
		case err != nil:
			rep.tally.reclassify(failRun)
			rep.note("request %d: direct run: %v", x.index, err)
		case !maps.Equal(r.Metrics(), x.metrics):
			rep.tally.reclassify(failWrong)
			rep.note("request %d (%s seed %d): served metrics differ from a direct spec.Run", x.index, fx[p.fixture].name, p.seed)
		}
	}
	rep.note("verified %d of %d responses against a direct spec.Run", checked, len(xs))
}

// closeServer drops the client's idle connections, stops the server and
// removes its store directory (unless dir is empty).
func closeServer(hc *http.Client, srv *server, dir string) error {
	hc.CloseIdleConnections()
	err := srv.close()
	if dir != "" {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}
	return err
}

// storeBytesPerResult is the mean size of the result files in a disk
// store directory.
func storeBytesPerResult(dir string) float64 {
	var total, files int64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
			files++
		}
		return nil
	})
	if files == 0 {
		return 0
	}
	return float64(total) / float64(files)
}

// replay runs the first replayCap measured requests again through the
// public calls the service makes — spec decode, hash, clone and build, then
// runner.Run — timing each.
func replay(rep *report, fx []fixture, plan plan, xs []exchange) error {
	var decode, hash, clone, build, run time.Duration
	n := min(len(xs), replayCap)
	for _, x := range xs[:n] {
		p := plan.at(x.index)
		t0 := time.Now()
		sp, err := spec.DecodeBytes(fx[p.fixture].raw)
		t1 := time.Now()
		if err != nil {
			return err
		}
		sp.Env.Seed = p.seed
		if _, err := sp.Hash(); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := sp.Clone(); err != nil {
			return err
		}
		t3 := time.Now()
		decode += t1.Sub(t0)
		hash += t2.Sub(t1)
		clone += t3.Sub(t2)
		env, proto, err := sp.Build()
		t4 := time.Now()
		if err != nil {
			return err
		}
		if _, err := runner.Run(env, proto); err != nil {
			return err
		}
		build += t4.Sub(t3)
		run += time.Since(t4)
	}
	rep.note("spec and runner times are totals over the first %d traced requests, replayed", n)
	rep.set("spec.decode_s", decode.Seconds())
	rep.set("spec.hash_s", hash.Seconds())
	rep.set("spec.clone_s", clone.Seconds())
	rep.set("spec.build_s", build.Seconds())
	rep.set("runner.run_s", run.Seconds())
	return nil
}

// serveLayers times the service's layers from outside: the HTTP handler
// (middleware), the persistent store (wrapper), and the queue: from a
// request's arrival at the handler until a worker's BeforeJob. BeforeJob
// does not say which job it starts, so jobs are matched to arrivals in
// arrival order; every serve_fresh request starts exactly one job.
type serveLayers struct {
	mu        sync.Mutex
	handler   []time.Duration
	queueWait []time.Duration
	arrivals  []time.Time // POST /v1/runs arrivals not yet matched to a job
	put, get  time.Duration
	puts      int
	gets      int
}

func newServeLayers() *serveLayers { return &serveLayers{} }

// reset discards everything recorded so far (set-up traffic).
func (l *serveLayers) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handler, l.queueWait, l.arrivals = nil, nil, nil
	l.put, l.get, l.puts, l.gets = 0, 0, 0, 0
}

func (l *serveLayers) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		l.mu.Lock()
		l.arrivals = append(l.arrivals, t0)
		l.mu.Unlock()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		l.mu.Lock()
		l.handler = append(l.handler, d)
		l.mu.Unlock()
	})
}

func (l *serveLayers) beforeJob() {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.arrivals) == 0 {
		return
	}
	l.queueWait = append(l.queueWait, now.Sub(l.arrivals[0]))
	l.arrivals = l.arrivals[1:]
}

// report records the per-layer service and store metrics of the traced
// phase.
func (l *serveLayers) report(rep *report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := seconds(l.handler)
	rep.set("service.handler_p50_s", percentile(h, 0.5))
	if p99, ok := tailPercentile(h, 0.99); ok {
		rep.set("service.handler_p99_s", p99)
	}
	q := seconds(l.queueWait)
	rep.set("service.queue_wait_p50_s", percentile(q, 0.5))
	if p99, ok := tailPercentile(q, 0.99); ok {
		rep.set("service.queue_wait_p99_s", p99)
	}
	rep.set("service.jobs", float64(len(l.queueWait)))
	rep.set("store.put_s", l.put.Seconds())
	rep.set("store.puts", float64(l.puts))
	rep.set("store.get_s", l.get.Seconds())
	rep.set("store.gets", float64(l.gets))
	rep.note("traced phase: %d handler calls, %d jobs; store times are totals over the phase; p99s need >= %d samples beyond them", len(h), len(q), minTail)
}

// timedStore times the service's persistent tier.
type timedStore struct {
	inner store.Store[*service.Result]
	lay   *serveLayers
}

func (s *timedStore) Get(key string) (*service.Result, bool) {
	t0 := time.Now()
	v, ok := s.inner.Get(key)
	d := time.Since(t0)
	s.lay.mu.Lock()
	s.lay.get += d
	s.lay.gets++
	s.lay.mu.Unlock()
	return v, ok
}

func (s *timedStore) Put(key string, v *service.Result) error {
	t0 := time.Now()
	err := s.inner.Put(key, v)
	d := time.Since(t0)
	s.lay.mu.Lock()
	s.lay.put += d
	s.lay.puts++
	s.lay.mu.Unlock()
	return err
}

func (s *timedStore) Len() int     { return s.inner.Len() }
func (s *timedStore) Close() error { return s.inner.Close() }
