// Command perfbench is the repository's end-to-end benchmark: one command
// that runs a named workload for a fixed time, checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is a JSON object {"correct", "attempted", "failed",
// "metrics"}.
//
//	go -C perfbench build -o /tmp/perfbench . && /tmp/perfbench --workload serve_fresh --seed 3 --seconds 25 --trace 0
//
// or, from the repository root, bash perfbench/run.sh with the same flags.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer split from a run whose layer calls are timed. See
// README.md for the workloads and the layer → metric → end-to-end map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one catalogue entry: a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed by every workload.
// On ring_1e6 one operation is one runner.Run election; on the serve
// workload one operation is one HTTP request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload's path does
// not cross reads 0 on that workload (for example store.puts on ring_1e6).
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"network.new_s", "s"},
	{"network.new_allocs_per_node", "count"},
	{"network.new_bytes_per_node", "B"},
	{"core.node_new_s", "s"},
	{"channel.link_new_s", "s"},
	{"channel.links", "count"},
	{"network.run_s", "s"},
	{"sim.events", "count"},
	{"sim.run_events_per_s", "1/s"},
	{"sim.self_s", "s"},
	{"sim.queue_peak", "count"},
	{"core.handler_s", "s"},
	{"core.handler_calls", "count"},
	{"channel.send_s", "s"},
	{"channel.sends", "count"},
	{"dist.sample_s", "s"},
	{"dist.samples", "count"},
	{"runner.run_s", "s"},
	{"service.handler_p50_s", "s"},
	{"service.handler_p99_s", "s"},
	{"service.queue_wait_p50_s", "s"},
	{"service.queue_wait_p99_s", "s"},
	{"service.jobs", "count"},
	{"store.put_s", "s"},
	{"store.puts", "count"},
	{"store.get_s", "s"},
	{"store.gets", "count"},
	{"store.bytes_per_result", "B"},
	{"spec.decode_s", "s"},
	{"spec.hash_s", "s"},
	{"spec.clone_s", "s"},
	{"spec.build_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"ring_1e6":    runRing,
	"serve_fresh": runServeFresh,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	traced   bool
	root     string // the checkout: source digest and scratch space live here
	source   string // sha256 of the checkout's Go sources
	scratch  string // this invocation's directory for temporary stores, inside root
}

// report is what a workload hands back: metric values by name, the
// failure tally, and human-readable notes (sample counts, check results).
type report struct {
	values map[string]float64
	tally  *tally
	notes  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, tally: newTally()}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload name: ring_1e6 or serve_fresh")
	seed := fl.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fl.Int("seconds", 50, "measured-phase length in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	root := fl.String("root", ".", "repository checkout the benchmark runs in")
	commit := fl.String("commit", "unknown", "commit being measured, recorded with the result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*secs) * time.Second,
		traced:   *trace == 1,
		root:     absRoot,
		source:   sourceDigest(absRoot),
	}
	tmp := filepath.Join(absRoot, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.scratch, err = os.MkdirTemp(tmp, cfg.workload+"-"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.scratch)
	host := hostFacts(cfg, *commit)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *secs, *trace)

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := buildResult(rep, cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	fmt.Fprintf(stdout, "metric failed_frac %.6g ratio (%d of %d operations failed%s)\n",
		rep.tally.frac(), res.Failed, res.Attempted, failureBreakdown(rep.tally))
	for _, def := range catalogue(cfg.traced) {
		fmt.Fprintf(stdout, "metric %s %s %s\n", def.name, strconv.FormatFloat(res.Metrics[def.name].Value, 'f', -1, 64), def.unit)
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	if err := saveRecord(cfg, host, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: saving result record: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// buildResult fills the result line from a workload's report. Every
// end-to-end metric must have been measured; a per-layer metric the
// workload's path does not reach reads 0.
func buildResult(rep *report, traced bool) (result, error) {
	res := result{
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failures(),
		Metrics:   map[string]metric{},
	}
	for _, def := range catalogue(traced) {
		v, ok := rep.values[def.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func failureBreakdown(t *tally) string {
	if t.failures() == 0 {
		return ""
	}
	var parts []string
	for reason, n := range t.failed {
		parts = append(parts, fmt.Sprintf("%s=%d", reason, n))
	}
	sort.Strings(parts)
	return ": " + strings.Join(parts, " ")
}

// host records where and on what a result was measured. Baselines are
// comparable only between results with equal host facts.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func hostFacts(cfg config, commit string) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		SourceSHA:  cfg.source,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.measure / time.Second),
		Traced:     cfg.traced,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file of the checkout, so
// a result names the exact code it measured even where there is no git
// history. Hidden directories (.bench_build among them) are skipped.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveRecord writes the result with its host facts under
// .bench_build/results, one file per invocation.
func saveRecord(cfg config, h host, res result) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Host   host   `json:"host"`
		Result result `json:"result"`
	}{h, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", cfg.workload, cfg.seed, cfg.traced, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
