package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile before it
// is reported: fewer, and the "percentile" is one or two outliers.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	v, _ := tailPercentile(xs, q)
	return v
}

// tailPercentile is percentile plus whether at least minTail samples lie
// strictly above the returned rank, i.e. whether the value may be reported
// as a tail latency.
func tailPercentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n-rank >= minTail
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Failure reasons counted by a tally. Every attempted operation ends in
// exactly one of these or in success.
const (
	failRefused   = "refused"   // HTTP 503: queue full or admission control
	failTransport = "transport" // no HTTP response at all
	failJob       = "job"       // a response, but not a finished run
	failWrong     = "wrong"     // a finished run whose output is incorrect
	failRun       = "run"       // a direct run returned an error
)

// tally counts attempted operations and failures by reason.
type tally struct {
	attempted int
	failed    map[string]int
}

func newTally() *tally { return &tally{failed: map[string]int{}} }

// ok records one successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records one failed operation.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed[reason]++
}

// reclassify turns one operation already counted as a success into a
// failure, for checks that run after the operation (result verification).
func (t *tally) reclassify(reason string) { t.failed[reason]++ }

// failures is the number of failed operations.
func (t *tally) failures() int {
	n := 0
	for _, c := range t.failed {
		n += c
	}
	return n
}

// frac is failures ÷ attempts.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.attempted)
}

// classifyResponse maps one HTTP exchange to a failure reason, or "" for
// a finished run. status is the job status the body reports.
func classifyResponse(code int, err error, status string) string {
	switch {
	case err != nil:
		return failTransport
	case code == 503:
		return failRefused
	case code != 200 || status != "done":
		return failJob
	}
	return ""
}

// spans accumulates self time per layer from properly nested spans on one
// goroutine: a span's self time is its duration minus the duration of the
// child spans it covers. enter and exit read the monotonic clock; begin
// and end take timestamps, so tests can drive them with a fake clock.
type spans struct {
	base  time.Time
	self  []time.Duration
	calls []uint64
	stack []frame
}

type frame struct {
	layer int
	start time.Duration
	child time.Duration // summed durations of direct children
}

func newSpans(layers int) *spans {
	return &spans{base: time.Now(), self: make([]time.Duration, layers), calls: make([]uint64, layers)}
}

func (s *spans) enter(layer int) { s.begin(layer, time.Since(s.base)) }
func (s *spans) exit()           { s.end(time.Since(s.base)) }

func (s *spans) begin(layer int, now time.Duration) {
	s.stack = append(s.stack, frame{layer: layer, start: now})
	s.calls[layer]++
}

func (s *spans) end(now time.Duration) {
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := now - top.start
	s.self[top.layer] += d - top.child
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
}

// gcCounters reads the runtime's cumulative GC CPU time and cycle count.
func gcCounters() (cpu float64, cycles uint64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
