package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runAsMain tells the test binary to behave as abe-elect itself: TestMain
// then calls main() with the arguments after "--" instead of running the
// tests, so each case exercises the real flag parsing and exit status.
const runAsMain = "ABE_ELECT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// abeElect runs the command with args and returns its stdout, stderr and
// whether it exited zero.
func abeElect(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		if _, exited := err.(*exec.ExitError); !exited {
			t.Fatalf("abe-elect %v: %v", args, err)
		}
	}
	return out.String(), errb.String(), err == nil
}

// reportOf runs the command with -json and returns the document's
// "metrics" and "report" objects.
func reportOf(t *testing.T, args ...string) (metrics, report any) {
	t.Helper()
	stdout, stderr, ok := abeElect(t, append(args, "-json")...)
	if !ok {
		t.Fatalf("abe-elect %v failed: %s", args, stderr)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("abe-elect %v: output is not one JSON document: %v\n%s", args, err, stdout)
	}
	if doc["metrics"] == nil || doc["report"] == nil {
		t.Fatalf("abe-elect %v: document lacks metrics or report:\n%s", args, stdout)
	}
	return doc["metrics"], doc["report"]
}

// sameRun checks that two invocations print identical metrics and report
// objects.
func sameRun(t *testing.T, a, b []string) {
	t.Helper()
	ma, ra := reportOf(t, a...)
	mb, rb := reportOf(t, b...)
	if !reflect.DeepEqual(ma, mb) {
		t.Errorf("metrics differ:\n %v: %v\n %v: %v", a, ma, b, mb)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("reports differ:\n %v: %v\n %v: %v", a, ra, b, rb)
	}
}

// TestFlagsMatchSpec checks that the flag door and the spec door build the
// same scenario: the default election flags and the committed ring spec.
func TestFlagsMatchSpec(t *testing.T) {
	sameRun(t,
		[]string{"-n", "16", "-seed", "1"},
		[]string{"-spec", filepath.Join("..", "..", "examples", "specs", "election_ring.json")})
}

// TestLossyFlagsMatchInlineSpec checks lossy runs, whose messages go
// through the network's link-fault path, against the same scenarios
// written as specs: -loss sets the plan and the default horizon 1000·δ.
// Seed 3 elects a leader without losing a message; seed 1 loses two and
// elects none.
func TestLossyFlagsMatchInlineSpec(t *testing.T) {
	for _, tc := range []struct {
		seed    string
		dropped float64
	}{{"3", 0}, {"1", 2}} {
		path := filepath.Join(t.TempDir(), "lossy.json")
		lossy := `{
  "version": 1,
  "env": {
    "n": 16,
    "delay": {"name": "exponential", "params": {"mean": 1}},
    "seed": ` + tc.seed + `,
    "horizon": 1000,
    "faults": {"loss": 0.1}
  },
  "protocol": {"name": "election"}
}`
		if err := os.WriteFile(path, []byte(lossy), 0o644); err != nil {
			t.Fatal(err)
		}
		flags := []string{"-loss", "0.1", "-seed", tc.seed}
		sameRun(t, flags, []string{"-spec", path})
		_, report := reportOf(t, flags...)
		faults, ok := report.(map[string]any)["Faults"].(map[string]any)
		if !ok {
			t.Fatalf("seed %s: the report carries no fault telemetry", tc.seed)
		}
		if got := faults["MessagesDropped"]; got != tc.dropped {
			t.Errorf("seed %s: %v messages dropped, want %v", tc.seed, got, tc.dropped)
		}
	}
}

// TestConflictingFlagsFail checks that contradictory command lines exit
// non-zero instead of silently ignoring a flag.
func TestConflictingFlagsFail(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "election_ring.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", spec, "-n", "8"}, "-spec states the scenario"},
		{[]string{"-live", "-loss", "0.1"}, "-live cannot be combined"},
		{[]string{"-dry-run"}, "-dry-run requires -spec"},
		{[]string{"-recover", "0.1"}, "needs -crash"},
	} {
		if _, stderr, ok := abeElect(t, tc.args...); ok {
			t.Errorf("abe-elect %v exited zero, want a usage error", tc.args)
		} else if !strings.Contains(stderr, tc.want) {
			t.Errorf("abe-elect %v: stderr %q does not say %q", tc.args, stderr, tc.want)
		}
	}
}
