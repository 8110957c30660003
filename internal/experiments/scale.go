package experiments

import (
	"fmt"
	"time"

	"abenet/internal/harness"
	"abenet/internal/runner"
)

// scaleSizes is the E16 ladder. The full ladder tops out at one million
// nodes — the headline the pooled delivery path exists for; Quick stops at
// 10⁴ so the suite stays benchmark-friendly.
var scaleSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// scaleRun is one ladder rung. The per-node activation probability
// A0 = 1/n with tick interval n keeps the total event count O(n): in each
// tick round (n virtual time units, n tick events) about one node
// self-activates, so only O(1) candidate tokens circulate while the
// election resolves. The paper's default A0 = c/n² with unit ticks has the
// same message complexity but takes Θ(n²) tick events to get there —
// quadratic kernel work that would make the 10⁶ rung unreachable.
func scaleRun(n int, seed uint64) (runner.Env, runner.Election) {
	return runner.Env{N: n, Seed: seed, MaxEvents: 2_000_000_000},
		runner.Election{A0: 1 / float64(n), TickInterval: float64(n)}
}

// E16Scale measures the event throughput of the ring election ladder
// n = 10³..10⁶. The finding max_n_elected is the largest ring that
// completed with exactly one leader.
func E16Scale(opt Options) (Result, error) {
	res := Result{
		ID:    "E16",
		Claim: "a single ring election at n = 10⁶ completes in memory on one machine",
	}
	table := harness.NewTable(
		"E16: election scaling ladder (A0 = 1/n, tick = n), events/sec",
		"n", "events", "messages", "elected", "wall s", "events/sec")

	sizes := scaleSizes
	if opt.Quick {
		sizes = sizes[:2]
	}
	res.Pass = true
	maxElected := 0.0
	for _, n := range sizes {
		start := time.Now()
		r, err := runner.Run(scaleRun(n, opt.Seed))
		if err != nil {
			return res, fmt.Errorf("E16: n=%d: %w", n, err)
		}
		wall := time.Since(start).Seconds()
		if r.Leaders != 1 {
			res.Pass = false
		} else if float64(n) > maxElected {
			maxElected = float64(n)
		}
		table.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%v", r.Elected),
			fmt.Sprintf("%.2f", wall),
			fmt.Sprintf("%.3g", float64(r.Events)/wall),
		)
	}
	res.Table = table
	res.Findings = Findings{"max_n_elected": maxElected}
	return res, nil
}
