package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"abenet/internal/runner"
)

// fixtureHashes pins Hash() of every committed example spec. The hash is
// the result-store key of a scenario, so a change here strands every
// stored result of that scenario.
var fixtureHashes = map[string]string{
	"byzantine_broadcast.json":      "8a763bf04e5ea8b7da1173ba2a48ea45261ff52f5264697e5f819d9e9ea805e0",
	"byzantine_consensus.json":      "a0f44eaf37d724fbd4122a12c7f6681800935edd1aaa19a6c99deb3e0b93fbef",
	"chang_roberts_pareto.json":     "a4d947b6631a0e47f24ac6a75740f4cd0317b31f0f3d0dea5eeeca0096ff664e",
	"clock_sync_torus.json":         "9b1e9a8aa421a33bec6d0cb122bab0cb277d63c258542d14c2dc74734d893804",
	"election_arq_hypercube.json":   "25a05ed9d407acc63bb50f4186c9c2465d5ffca61d8c4e631d5bc4534a0b914b",
	"election_lossy_partition.json": "6f020bc783133d51a43e2cc1d0a95589731c6b0c53cdfe10ec90cf5d1bd58543",
	"election_ring.json":            "c76168a922260d24e06b5b6c92660b476309e60b445f33ecc01cd964f310bd0a",
	"election_ring_calendar.json":   "1b7cb33a59b08eaa7bcf878395a6683ddb26c9d36dff0a1e0d151127fc688347",
	"election_ring_observed.json":   "c76168a922260d24e06b5b6c92660b476309e60b445f33ecc01cd964f310bd0a",
	"election_ring_traced.json":     "c76168a922260d24e06b5b6c92660b476309e60b445f33ecc01cd964f310bd0a",
	"itai_rodeh_sweep.json":         "6252eded6e2949b0f343e494baa01c980ff14fd96bfcc1e2fddfc40e1ca19dd6",
	"peterson_bimodal.json":         "1489a840403028bf0a40c926627fb887a202ae7239c61f094706354c03cf2a4f",
}

// TestFixtureHashesPinned: every example spec hashes to its pinned key.
func TestFixtureHashesPinned(t *testing.T) {
	paths := fixturePaths(t)
	if len(paths) != len(fixtureHashes) {
		t.Errorf("%d fixtures, %d pinned hashes", len(paths), len(fixtureHashes))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		s, err := DecodeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != fixtureHashes[name] {
			t.Errorf("%q: hash %s, pinned %s", name, h, fixtureHashes[name])
		}
	}
}

// fixtureMetrics pins the sha256 of the JSON-encoded Metrics() map of every
// single-run fixture (the sweep view for sweep fixtures) under
// examples/specs and perfbench/specs, keyed by examples/file or perfbench/file.
var fixtureMetrics = map[string]string{
	"examples/byzantine_broadcast.json":       "ad442c9355aedeb6c695c6646fe1c9e63581cf1165a0bedceac3b1385490bee5",
	"examples/byzantine_consensus.json":       "7ab251a1669156c57770ed4ca54d842f4a65c3fce6d12835549cf7935b9998d4",
	"examples/chang_roberts_pareto.json":      "3a71b412db54acb73f3094ade3f0c0d9e8e84096f1e2df847b38bd94154dde3e",
	"examples/clock_sync_torus.json":          "576151f8c3cd3a5bad45cf81ba7fd80638c46699d812e5a1b9ccbcf08032ef9d",
	"examples/election_arq_hypercube.json":    "3997ad27e5dc093c2a5553276968467e16532f6958e916f66061741f66b00f77",
	"examples/election_lossy_partition.json":  "4694e4592825586af1ec55b87f60251995e8b80eee33a21137f3b02fd787791f",
	"examples/election_ring.json":             "a60c3fdc1a6e91a625ca367a501f90e8eede34a77d5f529c55bb7edd7eea4914",
	"examples/election_ring_calendar.json":    "ce414951ce8f6468251e713e3f9d1d4da62ce7875dea2c7fd3a5471e634d3542",
	"examples/election_ring_observed.json":    "a60c3fdc1a6e91a625ca367a501f90e8eede34a77d5f529c55bb7edd7eea4914",
	"examples/election_ring_traced.json":      "a60c3fdc1a6e91a625ca367a501f90e8eede34a77d5f529c55bb7edd7eea4914",
	"examples/itai_rodeh_sweep.json":          "9cfe7fd274e28862d030a4255fd6804573d77add9980819cc0e00b4381bcf510",
	"examples/peterson_bimodal.json":          "e9fff9366874edf727103134745018db15548a93136c12a850ba7624711a5bd6",
	"perfbench/byzantine_broadcast.json":      "06d7f448fe42929becf3bff6f76fc56e1a27b6a84679d83c76b134dccd4b3be0",
	"perfbench/byzantine_consensus.json":      "53c582d4ebbab641dff2c83d476e9812b39bd3bb12a12dd720b60d06631580b9",
	"perfbench/chang_roberts_pareto.json":     "fde32bd4df66f4142bc8f2b91cb961079b6eb39fad78a84e106bec880cac4180",
	"perfbench/clock_sync_torus.json":         "fa4354f9f3458a9695e0bd95390482ed21d8407b9f15242041883799dcbbb349",
	"perfbench/election_arq_hypercube.json":   "59e85ac0377fb0f65e2014d1f0be19a313c62be9c38421347cde30b7674b739e",
	"perfbench/election_lossy_partition.json": "4694e4592825586af1ec55b87f60251995e8b80eee33a21137f3b02fd787791f",
	"perfbench/election_ring.json":            "fab6f0fce19596fcf6a7d31e7670f8bd35b67a5803148819d6d79769b03139f7",
	"perfbench/election_ring_calendar.json":   "fab6f0fce19596fcf6a7d31e7670f8bd35b67a5803148819d6d79769b03139f7",
	"perfbench/election_ring_observed.json":   "996ae3a4eee516da33aa2b1825a056e5d0bad51b81be3525303e34d742fe391e",
	"perfbench/election_ring_traced.json":     "a60c3fdc1a6e91a625ca367a501f90e8eede34a77d5f529c55bb7edd7eea4914",
	"perfbench/peterson_bimodal.json":         "1f111159fafffcab6de9b2f7efa8d30b2d22ef4747d5fa9b57b410106a306c6d",
}

// TestFixtureMetricsPinned: every fixture reports its pinned metrics.
func TestFixtureMetricsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture execution is not short")
	}
	var paths []string
	for _, dir := range []string{fixtureDir, "../../perfbench/specs"} {
		p, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p...)
	}
	if len(paths) != len(fixtureMetrics) {
		t.Errorf("%d fixtures, %d pinned metric digests", len(paths), len(fixtureMetrics))
	}
	for _, path := range paths {
		key := filepath.Join(filepath.Base(filepath.Dir(filepath.Dir(path))), filepath.Base(path))
		s, err := DecodeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if s.Sweep != nil {
			points, err := s.RunSweep(0)
			if err != nil {
				t.Fatal(err)
			}
			v = SweepView(points, nil)
		} else {
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			v = rep.Metrics()
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != fixtureMetrics[key] {
			t.Errorf("%q: metrics digest %s, pinned %s", key, got, fixtureMetrics[key])
		}
	}
}

// TestSchedulerFieldCompatibility: env.scheduler names a stored spec may
// carry decode and are ignored; any other name fails with the typed error.
func TestSchedulerFieldCompatibility(t *testing.T) {
	spec := func(name string) []byte {
		return []byte(`{"version":1,"env":{"n":8,"seed":5,"scheduler":"` + name + `"},"protocol":{"name":"election"}}`)
	}
	for _, name := range []string{"", "heap", "calendar"} {
		if _, err := DecodeBytes(spec(name)); err != nil {
			t.Errorf("scheduler %q: %v", name, err)
		}
	}
	_, err := DecodeBytes(spec("splay"))
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("scheduler \"splay\": %v, want ErrUnknownScheduler", err)
	}
	s := &Spec{Version: Version, Env: EnvSpec{N: 8, Scheduler: "splay"}, Protocol: protoSpec(t, runner.Election{})}
	if _, _, err := s.Build(); !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("Build = %v, want ErrUnknownScheduler", err)
	}
}
