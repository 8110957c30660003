// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_*.json shape committed in this repository (see BENCH_seed.json):
// per-benchmark ns/op plus any custom metrics, the capture environment,
// and a stable ordering. CI pipes the benchmark smoke run through it to
// publish BENCH_pr2.json next to the seed baseline.
//
// With -baseline FILE it additionally prints a per-benchmark ns/op
// comparison against a previously committed BENCH_*.json to stderr, so a
// kernel regression is visible directly in the CI log (timings are
// single-iteration smoke numbers: treat large consistent swings as
// signal, small ones as noise).
//
// Usage:
//
//	go test -bench . -benchtime 1x -run '^$' . | go run ./internal/tools/benchjson \
//	    -command "go test -bench . -benchtime 1x -run '^$' ." \
//	    -note "PR benchmark smoke through the unified Run path" \
//	    -baseline BENCH_pr4.json > BENCH_pr5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchmark is one benchmark's captured numbers. The allocation fields are
// pointers so a genuine 0 allocs/op (the kernel's allocation-free hot paths)
// survives the round trip distinguishably from "run without -benchmem".
type benchmark struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// output is the BENCH_*.json document.
type output struct {
	Benchmarks  map[string]benchmark `json:"benchmarks"`
	Command     string               `json:"command"`
	Environment map[string]string    `json:"environment"`
	Note        string               `json:"note"`
	Order       []string             `json:"order"`
}

func main() {
	command := flag.String("command", "go test -bench . -benchtime 1x -run '^$' .", "command recorded in the document")
	note := flag.String("note", "benchmark smoke: single-iteration timings are indicative only; the attached metrics pin the experiments' headline findings", "note recorded in the document")
	baseline := flag.String("baseline", "", "committed BENCH_*.json to print a ns/op comparison against (stderr)")
	flag.Parse()

	out := output{
		Benchmarks:  map[string]benchmark{},
		Command:     *command,
		Environment: map[string]string{},
		Note:        *note,
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				out.Environment[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name-GOMAXPROCS, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix, but only when it is numeric so
		// dashes inside sub-benchmark names (Link/random-delay) survive.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := benchmark{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = &v
			case "allocs/op":
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[fields[i+1]] = v
			}
		}
		out.Benchmarks[name] = b
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for name := range out.Benchmarks {
		out.Order = append(out.Order, name)
	}
	sort.Strings(out.Order)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *baseline != "" {
		if err := compare(*baseline, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// compare prints a per-benchmark ns/op delta table against a committed
// baseline document to stderr. Benchmarks present on only one side are
// listed as added/removed rather than silently skipped.
func compare(path string, current output) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base output
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	names := map[string]bool{}
	for name := range base.Benchmarks {
		names[name] = true
	}
	for name := range current.Benchmarks {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	fmt.Fprintf(os.Stderr, "benchmark comparison vs %s (smoke timings: treat small deltas as noise)\n", path)
	fmt.Fprintf(os.Stderr, "%-44s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, name := range sorted {
		b, inBase := base.Benchmarks[name]
		c, inCur := current.Benchmarks[name]
		switch {
		case !inBase:
			fmt.Fprintf(os.Stderr, "%-44s %14s %14.0f %9s\n", name, "—", c.NsPerOp, "added")
		case !inCur:
			fmt.Fprintf(os.Stderr, "%-44s %14.0f %14s %9s\n", name, b.NsPerOp, "—", "removed")
		case b.NsPerOp == 0:
			fmt.Fprintf(os.Stderr, "%-44s %14.0f %14.0f %9s\n", name, b.NsPerOp, c.NsPerOp, "—")
		default:
			fmt.Fprintf(os.Stderr, "%-44s %14.0f %14.0f %+8.1f%%\n",
				name, b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
	}
	compareAllocs(sorted, base, current)
	return nil
}

// compareAllocs prints the allocation half of the comparison — allocs/op
// per benchmark, with B/op in parentheses — for benchmarks where either
// side recorded memory numbers (-benchmem). Unlike the smoke timings,
// allocation counts are deterministic, so any delta is a real change in
// the measured code path.
func compareAllocs(sorted []string, base, current output) {
	any := false
	for _, name := range sorted {
		if base.Benchmarks[name].AllocsPerOp != nil || current.Benchmarks[name].AllocsPerOp != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	cell := func(b benchmark) string {
		if b.AllocsPerOp == nil {
			return "—"
		}
		if b.BytesPerOp == nil {
			return fmt.Sprintf("%.0f", *b.AllocsPerOp)
		}
		return fmt.Sprintf("%.0f (%.0f B)", *b.AllocsPerOp, *b.BytesPerOp)
	}
	fmt.Fprintf(os.Stderr, "\nallocation comparison (allocs/op, deterministic — every delta is real)\n")
	fmt.Fprintf(os.Stderr, "%-44s %18s %18s %9s\n", "benchmark", "baseline", "current", "delta")
	for _, name := range sorted {
		b, inBase := base.Benchmarks[name]
		c, inCur := current.Benchmarks[name]
		if (!inBase || b.AllocsPerOp == nil) && (!inCur || c.AllocsPerOp == nil) {
			continue
		}
		delta := "—"
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil && *b.AllocsPerOp != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(*c.AllocsPerOp-*b.AllocsPerOp) / *b.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "%-44s %18s %18s %9s\n", name, cell(b), cell(c), delta)
	}
}
