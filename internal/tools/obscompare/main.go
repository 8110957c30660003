// Command obscompare gates the observer overhead in CI. It reads
// `go test -bench` output on stdin, takes the best (minimum) ns/op for a
// baseline benchmark and an observed benchmark across however many
// repetitions ran, and exits non-zero if the observed best exceeds the
// baseline best by more than -max-overhead.
//
// Best-of-N over repeated runs is the standard way to compare paired
// microbenchmarks: the minimum is the least-noisy estimate of the true
// cost, so a persistent gap survives while scheduler jitter does not.
// Alternate the two legs rather than running all of one before the other
// (as -count N does), so a slow phase of the host hits both.
//
// Usage (CI's observer gate; the tracer gate is the same over
// ./internal/runner's BenchmarkTracerDetached/Attached at 500x):
//
//	go test -c -o sim.test ./internal/sim
//	for round in 1 2 3 4 5 6; do
//	    for leg in Detached Attached; do
//	        ./sim.test -test.run '^$' -test.bench "^BenchmarkObserver$leg\$" -test.benchtime 2000x -test.count 1
//	    done
//	done | go run ./internal/tools/obscompare \
//	    -baseline BenchmarkObserverDetached -observed BenchmarkObserverAttached -max-overhead 0.05
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "BenchmarkObserverDetached", "baseline benchmark name")
	observed := flag.String("observed", "BenchmarkObserverAttached", "observed benchmark name")
	maxOverhead := flag.Float64("max-overhead", 0.05, "maximum tolerated (observed-baseline)/baseline ratio")
	flag.Parse()

	best := map[string]float64{}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		fmt.Println(line) // pass the raw output through for the CI log
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if cur, ok := best[name]; !ok || v < cur {
				best[name] = v
			}
		}
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "obscompare:", err)
		os.Exit(1)
	}

	base, ok := best[*baseline]
	if !ok || base <= 0 {
		fmt.Fprintf(os.Stderr, "obscompare: no ns/op for baseline %s\n", *baseline)
		os.Exit(1)
	}
	obs, ok := best[*observed]
	if !ok {
		fmt.Fprintf(os.Stderr, "obscompare: no ns/op for observed %s\n", *observed)
		os.Exit(1)
	}
	overhead := (obs - base) / base
	fmt.Printf("obscompare: %s best %.0f ns/op, %s best %.0f ns/op, overhead %+.2f%% (limit %.0f%%)\n",
		*baseline, base, *observed, obs, overhead*100, *maxOverhead*100)
	if overhead > *maxOverhead {
		fmt.Fprintf(os.Stderr, "obscompare: observer overhead %.2f%% exceeds the %.0f%% budget\n",
			overhead*100, *maxOverhead*100)
		os.Exit(1)
	}
}
