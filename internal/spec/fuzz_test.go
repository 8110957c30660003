package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes, seeded from the example specs, to
// the decoder and checks two properties of every input that decodes:
//
//   - its canonical form decodes to the same canonical bytes and the same
//     Hash() (the result-store key is stable across a round trip);
//   - Build either errors or returns an Env that passes Validate — at every
//     sweep size for sweep specs — and nothing panics.
//
// Inputs declaring networks larger than a few thousand nodes are skipped:
// decoding builds the topology, and the property is about the codec, not
// about allocating million-node graphs inside the fuzzer.
func FuzzDecodeSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(fixtureDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs under %s: %v", fixtureDir, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresLargeNetwork(data) {
			t.Skip("declares a network too large to build in the fuzzer")
		}
		s, err := DecodeBytes(data)
		if err != nil {
			return
		}
		c1, err := s.Canonical()
		if err != nil {
			t.Fatalf("decoded spec has no canonical form: %v", err)
		}
		s2, err := DecodeBytes(c1)
		if err != nil {
			t.Fatalf("canonical form %s does not decode: %v", c1, err)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form is not a fixed point:\n1: %s\n2: %s", c1, c2)
		}
		h1, err1 := s.Hash()
		h2, err2 := s2.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("hash moved across the round trip: %q (%v) vs %q (%v)", h1, err1, h2, err2)
		}
		env, _, err := s.Build()
		if err != nil {
			return
		}
		if s.Sweep == nil {
			if err := env.Validate(); err != nil {
				t.Fatalf("Build returned an env that fails Validate: %v", err)
			}
			return
		}
		for _, x := range s.Sweep.Xs {
			env.N = int(x)
			if err := env.Validate(); err != nil {
				t.Fatalf("Build returned an env that fails Validate at sweep size %g: %v", x, err)
			}
		}
	})
}

// declaresLargeNetwork reports whether data, read as loose JSON, names a
// node count, torus side or sweep size above 2048 or a hypercube
// dimension above 11.
func declaresLargeNetwork(data []byte) bool {
	var v any
	if json.Unmarshal(data, &v) != nil {
		return false // the decoder rejects it before building anything
	}
	var walk func(key string, v any) bool
	walk = func(key string, v any) bool {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				// encoding/json matches field names case-insensitively.
				if walk(strings.ToLower(k), child) {
					return true
				}
			}
		case []any:
			for _, child := range v {
				if walk(key, child) {
					return true
				}
			}
		case float64:
			switch key {
			case "n", "rows", "cols", "xs":
				return v > 2048
			case "dim":
				return v > 11
			}
		}
		return false
	}
	return walk("", v)
}
