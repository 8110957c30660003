package abenet_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"abenet"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/experiments"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// One benchmark per experiment (E1..E15, DESIGN.md §5 plus the PR 3 fault
// suite). Each iteration
// executes the experiment in its reduced (Quick) configuration — the full
// configurations are run by cmd/abe-bench, which regenerates the tables
// recorded in EXPERIMENTS.md. Headline findings are attached as custom
// benchmark metrics so regressions in the *shape* of a result (growth
// exponents, violation rates, overhead factors) show up in benchmark diffs.

func benchExperiment(b *testing.B, run func(experiments.Options) (experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Fixed seed: each iteration measures the identical deterministic
		// workload (seed 1 quick mode, which the test suite verifies to
		// reproduce the claim). Varying the seed here would make timings
		// incomparable and the quick-mode shape criteria — designed for
		// that verified configuration — statistically fragile.
		res, err := run(experiments.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed to reproduce its claim: %v", res.ID, res.Findings)
		}
		if i == b.N-1 { // report the last iteration's findings
			for name, v := range res.Findings {
				b.ReportMetric(v, name)
			}
		}
	}
}

func BenchmarkE1RetransmissionDelay(b *testing.B) {
	benchExperiment(b, experiments.E1Retransmission)
}

func BenchmarkE2ElectionCorrectness(b *testing.B) {
	benchExperiment(b, experiments.E2Correctness)
}

func BenchmarkE3MessagesVsN(b *testing.B) {
	benchExperiment(b, experiments.E3Messages)
}

func BenchmarkE4TimeVsN(b *testing.B) {
	benchExperiment(b, experiments.E4Time)
}

func BenchmarkE5ActivationAblation(b *testing.B) {
	benchExperiment(b, experiments.E5Ablation)
}

func BenchmarkE6A0Sweep(b *testing.B) {
	benchExperiment(b, experiments.E6A0Sweep)
}

func BenchmarkE7VsItaiRodeh(b *testing.B) {
	benchExperiment(b, experiments.E7Comparison)
}

func BenchmarkE8SynchronizerOverhead(b *testing.B) {
	benchExperiment(b, experiments.E8Synchronizer)
}

func BenchmarkE9ABDSyncOnABE(b *testing.B) {
	benchExperiment(b, experiments.E9ABDOnABE)
}

func BenchmarkE10DelayDistributions(b *testing.B) {
	benchExperiment(b, experiments.E10DelayShapes)
}

func BenchmarkE11ClockDrift(b *testing.B) {
	benchExperiment(b, experiments.E11ClockDrift)
}

func BenchmarkE12ProcessingDelay(b *testing.B) {
	benchExperiment(b, experiments.E12Processing)
}

func BenchmarkE13LossResilience(b *testing.B) {
	benchExperiment(b, experiments.E13LossResilience)
}

func BenchmarkE14ByzantineBroadcast(b *testing.B) {
	benchExperiment(b, experiments.E14ByzantineBroadcast)
}

func BenchmarkE15CausalDepth(b *testing.B) {
	benchExperiment(b, experiments.E15CausalDepth)
}

func BenchmarkE16ScalingLadder(b *testing.B) {
	benchExperiment(b, experiments.E16Scale)
}

// ---- Micro-benchmarks of the core building blocks ----

func BenchmarkSingleElection64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.Election{A0: abenet.DefaultA0(64)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkSingleElection512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 512, Seed: uint64(i)}, abenet.Election{A0: abenet.DefaultA0(512)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkItaiRodehSync64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.ItaiRodehSync{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkChangRoberts64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.ChangRoberts{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

func BenchmarkModelCheckRing4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := abenet.CheckElection(abenet.CheckOptions{N: 4})
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() {
			b.Fatal("model check failed")
		}
	}
}

func BenchmarkLiveElection8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := abenet.Run(abenet.Env{N: 8, Seed: uint64(i)},
			abenet.LiveElection{A0: 0.05, MeanDelay: 50 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		if res.Leaders != 1 {
			b.Fatalf("leaders = %d", res.Leaders)
		}
	}
}

// ---- Benchmarks through the unified Run path ----
//
// These drive the Env/Protocol/Report API directly (CI's bench smoke step
// records them in BENCH_pr2.json): one canonical election, one non-ring
// environment, and a registry pass that runs the protocols by name —
// exactly the code path Sweep.RunProtocol and the CLIs use.

func BenchmarkRunElection64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := abenet.Run(abenet.Env{N: 64, Seed: uint64(i)}, abenet.Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
	}
}

func BenchmarkRunElectionHypercube64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := abenet.Run(abenet.Env{Graph: abenet.Hypercube(6), Seed: uint64(i)}, abenet.Election{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaders != 1 {
			b.Fatalf("leaders = %d", rep.Leaders)
		}
	}
}

// ---- Scaling ladder and delivery-path allocation benchmarks (PR 10) ----

// BenchmarkScaleElection runs one rung of the E16 ladder per sub-benchmark:
// a ring election parameterised for O(n) total events (A0 = 1/n, tick
// interval n). Run with -benchtime 1x: each "op" is one complete election,
// and the attached events/sec metric is the kernel throughput headline
// BENCH_pr10.json records. The ladder tops out at n = 10⁵ here; the 10⁶
// rung costs seconds, so it opts in via ABE_BENCH_MILLION=1 (the
// BENCH_pr10.json one-liner in README.md sets it).
func BenchmarkScaleElection(b *testing.B) {
	sizes := []int{1_000, 10_000, 100_000}
	if os.Getenv("ABE_BENCH_MILLION") != "" {
		sizes = append(sizes, 1_000_000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := abenet.Run(abenet.Env{N: n, Seed: 1, MaxEvents: 2_000_000_000},
					abenet.Election{A0: 1 / float64(n), TickInterval: float64(n)})
				if err != nil {
					b.Fatal(err)
				}
				if res.Leaders != 1 {
					b.Fatalf("leaders = %d", res.Leaders)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkLinkDelivery measures the per-message cost of the pooled,
// batched delivery path in isolation: b.N sends through one link, drained
// in one kernel run. allocs/op is the headline — the payload pool and the
// batch event amortise what used to be one scheduled closure per message —
// so CI runs this under -benchmem and benchjson's allocation table pins
// the delta against the previous PR's baseline.
func BenchmarkLinkDelivery(b *testing.B) {
	for _, tc := range []struct {
		name string
		make func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link
	}{
		{"random-delay", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewRandomDelay(k, dist.NewExponential(1), r, deliver)
		}},
		{"fifo", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewFIFO(k, dist.NewExponential(1), r, deliver)
		}},
		{"arq", func(k *sim.Kernel, r *rng.Source, deliver channel.DeliverFunc) channel.Link {
			return channel.NewARQ(k, 0.9, 1, r, deliver)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			kernel := sim.New()
			delivered := 0
			link := tc.make(kernel, rng.New(7), func(any) { delivered++ })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				link.Send(i)
			}
			if err := kernel.Run(simtime.Forever, 0); err != nil {
				b.Fatal(err)
			}
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
		})
	}
}

func BenchmarkRunRegistry16(b *testing.B) {
	// The whole registry on one default environment. live-election is
	// excluded: it sleeps wall-clock time, which is not what this
	// throughput benchmark tracks.
	for i := 0; i < b.N; i++ {
		for _, name := range abenet.Protocols() {
			if name == "live-election" {
				continue
			}
			p, ok := abenet.ProtocolByName(name)
			if !ok {
				b.Fatalf("%s missing from registry", name)
			}
			rep, err := abenet.Run(abenet.Env{N: 16, Seed: uint64(i)}, p)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			if rep.Messages == 0 {
				b.Fatalf("%s: no messages", name)
			}
		}
	}
}
