package main

import (
	"context"
	"encoding/json"
	"flag"
	"omnc/internal/jobs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omnc/internal/report"
)

func TestRunRandomSession(t *testing.T) {
	if err := runArgs("-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "60"); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplicitEndpointsETX(t *testing.T) {
	// Deterministic topology: find a pair via the random path first.
	if err := runArgs("-proto", "etx", "-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "60", "-cbr", "0"); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesSessionSVG(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "session.svg")
	if err := runArgs("-proto", "more", "-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-cbr", "0", "-svg", svg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "#2ca02c") {
		t.Fatal("no highlighted forwarders in session SVG")
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := runArgs("-proto", "bogus", "-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0"); err == nil {
		t.Fatal("unknown protocol must fail")
	}
}

func TestRunBadQuality(t *testing.T) {
	if err := runArgs("-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0", "-quality", "0.05"); err == nil {
		t.Fatal("bad quality target must fail")
	}
}

func TestRunParallelTrials(t *testing.T) {
	if err := runArgs("-proto", "etx", "-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-cbr", "0", "-trials", "4", "-workers", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelEngine(t *testing.T) {
	if err := runArgs("-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-engine-workers", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadTrials(t *testing.T) {
	if err := runArgs("-proto", "etx", "-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-cbr", "0", "-trials", "0", "-workers", "1"); err == nil {
		t.Fatal("zero trials must fail")
	}
}

func TestRunWithFaultPlan(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	const doc = `{"seed": 9, "events": [
		{"at": 5, "kind": "crash", "node": 10},
		{"at": 8, "kind": "burst", "from": 3, "to": 4, "dur": 6, "bad_factor": 0.1},
		{"at": 12, "kind": "recover", "node": 10}
	]}`
	if err := os.WriteFile(plan, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runArgs("-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-faults", plan); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFaultPlan(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	// Out-of-order events: Validate must reject, and run must surface it.
	const doc = `{"events": [
		{"at": 10, "kind": "crash", "node": 1},
		{"at": 5, "kind": "recover", "node": 1}
	]}`
	if err := os.WriteFile(plan, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runArgs("-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0", "-faults", plan); err == nil {
		t.Fatal("invalid fault plan must fail")
	}
	if err := runArgs("-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0", "-faults", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing fault plan file must fail")
	}
}

func TestRunSchemeFlag(t *testing.T) {
	for _, scheme := range []string{"rlnc-e2e", "rs"} {
		if err := runArgs("-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-scheme", scheme, "-redundancy", "2"); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

func TestRunRejectsBadSchemeAndRedundancy(t *testing.T) {
	if err := runArgs("-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0", "-scheme", "fountain"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if err := runArgs("-nodes", "60", "-min-hops", "3", "-max-hops", "8", "-duration", "30", "-cbr", "0", "-redundancy", "0.5"); err == nil {
		t.Fatal("sub-unit redundancy must fail")
	}
}

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := runArgs("-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-report", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Protocol != "omnc" || rep.TotalTx() == 0 || rep.GenerationsDecoded == 0 {
		t.Fatalf("report looks empty: %+v", rep)
	}
}

func TestRunRejectsReportWithTrials(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := runArgs("-proto", "etx", "-nodes", "100", "-seed", "3", "-min-hops", "3", "-max-hops", "8", "-duration", "40", "-cbr", "0", "-trials", "4", "-workers", "2", "-report", out); err == nil {
		t.Fatal("-report with -trials > 1 must fail")
	}
}

// TestEmptyCommandLineHashesLikeMinimalSpec: omnc-sim's flags spell out every
// session default, and the Spec they build must still share the content
// address of the minimal Spec naming the same session — so `omnc-sim -seed 3`
// and a daemon job {"kind":"session","seed":3} land in one run directory.
func TestEmptyCommandLineHashesLikeMinimalSpec(t *testing.T) {
	f, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	want, err := jobs.Decode([]byte(`{"version":1,"kind":"session","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != want.Hash() {
		t.Fatalf("empty command line builds %+v, hashing %s; the minimal Spec hashes %s", got, got.Hash(), want.Hash())
	}
	// -cbr 0 is not a default: it is the backlogged source.
	if f, err = parse("-cbr", "0"); err != nil {
		t.Fatal(err)
	}
	if got, err = f.resolve(); err != nil || got.Hash() == want.Hash() {
		t.Fatalf("-cbr 0 hashes like the default CBR rate (err %v)", err)
	}
}

// runArgs drives omnc-sim the way main does: register the flags, parse the
// command line, run.
func runArgs(args ...string) error {
	f, err := parse(args...)
	if err != nil {
		return err
	}
	return f.run(context.Background())
}

func parse(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("omnc-sim", flag.ContinueOnError)
	f := register(fs)
	return f, fs.Parse(args)
}
