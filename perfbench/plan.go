package main

import (
	"embed"
	"fmt"
	"path"
	"sort"
	"strconv"

	"abenet/internal/spec"
)

// specFiles are serve_fresh's scenarios: the deterministic,
// single-run fixtures of examples/specs (every one but the sweep), copied
// here so the benchmark's inputs change only when the benchmark does, and
// scaled up (more nodes) so that simulation, not the per-request service
// and fsync overhead, sets the median request's latency (see README.md).
//
//go:embed specs/*.json
var specFiles embed.FS

// fixture is one scenario a request can name.
type fixture struct {
	name string
	raw  []byte // the spec JSON as sent in the request body
}

// loadFixtures reads and validates the embedded scenarios, sorted by name
// so that plans index them stably.
func loadFixtures() ([]fixture, error) {
	entries, err := specFiles.ReadDir("specs")
	if err != nil {
		return nil, err
	}
	var out []fixture
	for _, e := range entries {
		raw, err := specFiles.ReadFile(path.Join("specs", e.Name()))
		if err != nil {
			return nil, err
		}
		sp, err := spec.DecodeBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("fixture %s: %w", e.Name(), err)
		}
		if sp.Sweep != nil {
			return nil, fmt.Errorf("fixture %s: sweeps are not single runs", e.Name())
		}
		out = append(out, fixture{name: e.Name(), raw: raw})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fixtures embedded")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// mix is the splitmix64 finaliser: a bijection on uint64 that scatters
// nearby inputs, used to derive every generated input from the workload
// seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream labels keep the derived sequences of one workload seed apart.
const (
	streamFresh  = 1 // serve_fresh's measured requests
	streamWarmUp = 2 // serve_fresh's set-up requests
	streamSample = 3 // which responses are verified in full
	streamOrder  = 4 // ring_1e6's election order
	streamBlock  = 8 // or-ed into a plan's stream: its fixture order
)

// derive returns the i-th value of the given stream of a workload seed.
func derive(seed uint64, stream, i uint64) uint64 {
	return mix(mix(seed^stream<<56) + i)
}

// pair is one request: a fixture run at a seed.
type pair struct {
	fixture int
	seed    uint64
}

// plan generates a workload's request sequence from its seed. The i-th
// request depends only on (seed, stream, i), so any prefix of the sequence
// is reproducible, whichever client sends which request. Every block of
// len(fixtures) consecutive requests names each fixture once, in an order
// drawn from the seed, so the scenario mix — whose run times span two
// orders of magnitude — is the same in every run.
type plan struct {
	seed     uint64
	stream   uint64
	fixtures int
}

// at returns the i-th pair. Pair seeds are distinct for distinct i: derive
// is a bijection of i for a fixed stream, so every pair in one plan is
// fresh.
func (p plan) at(i uint64) pair {
	n := uint64(p.fixtures)
	block := i / n
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := derive(p.seed, p.stream|streamBlock, block*n+k) % (k + 1)
		order[k], order[j] = order[j], order[k]
	}
	return pair{fixture: order[i%n], seed: derive(p.seed, p.stream, i)}
}

// requestBody is the POST /v1/runs body for a pair: the fixture's spec
// with its seed overridden, waiting for the result.
func requestBody(fx []fixture, p pair) []byte {
	b := make([]byte, 0, len(fx[p.fixture].raw)+64)
	b = append(b, `{"spec":`...)
	b = append(b, fx[p.fixture].raw...)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, p.seed, 10)
	b = append(b, `,"wait":true}`...)
	return b
}

// sampled reports whether response i of a phase is verified in full
// (about one in sampleEvery, chosen by the workload seed).
func sampled(seed, i uint64) bool {
	return derive(seed, streamSample, i)%sampleEvery == 0
}

const sampleEvery = 16
