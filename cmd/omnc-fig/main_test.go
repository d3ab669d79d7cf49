package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"omnc/internal/jobs"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// -update regenerates the golden fixtures under testdata/ instead of
// comparing against them:
//
//	go test ./cmd/omnc-fig -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func TestRunFig1WritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "1", "-csv", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig1_convergence.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2SmallSession(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "2l", "-sessions", "1", "-duration", "60", "-seed", "7", "-csv", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2l_gains.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := runArgs("-fig", "nope", "-sessions", "1", "-duration", "10"); err == nil {
		t.Fatal("unknown figure must fail")
	}
	if err := runArgs("-fig", "2l", "-sessions", "1", "-duration", "10", "-mac", "token-ring"); err == nil {
		t.Fatal("unknown MAC must fail")
	}
	if err := runArgs("-fig", "2l", "-sessions", "1", "-duration", "10", "-scheme", "fountain"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if err := runArgs("-fig", "2l", "-sessions", "1", "-duration", "10", "-redundancy", "0.5"); err == nil {
		t.Fatal("sub-unit redundancy must fail")
	}
}

// TestGoldenFig2CSV pins the figure data omnc-fig emits for a fixed seed:
// the CSV series must match the committed fixture byte for byte. The run
// uses two workers, so the fixture also guards the parallel runner's
// determinism at the CLI boundary. Regenerate with -update after an
// intentional behaviour change.
func TestGoldenFig2CSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "2l", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig2l_gains.csv"), "fig2l_gains.golden.csv")
}

// TestGoldenFig2CSVWithReport re-runs the pinned figure with observability
// reporting enabled: the CSV must stay byte-identical to the same fixture,
// proving the report hooks observe the emulation without perturbing it.
func TestGoldenFig2CSVWithReport(t *testing.T) {
	if *update {
		t.Skip("fixture is owned by TestGoldenFig2CSV")
	}
	dir := t.TempDir()
	if err := runArgs("-fig", "2l", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2", "-report"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig2l_gains.csv"), "fig2l_gains.golden.csv")
}

// TestGoldenMultiCSV pins the multi-unicast scaling series for a fixed seed:
// two session counts, two trials each, all four protocols on one shared
// engine per cell, two workers — so the fixture also guards RunMultiScaling's
// workers-invariant determinism at the CLI boundary.
func TestGoldenMultiCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "multi", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig_multi.csv"), "fig_multi.golden.csv")
}

// TestGoldenMultiCSVParallelEngine re-runs the multi figure on the parallel
// event engine (-engine-workers 2) against the SAME golden fixture: the
// conservative engine's contract is byte-identical output at any worker
// count, so the serial fixture must match without regeneration.
func TestGoldenMultiCSVParallelEngine(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "multi", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2", "-engine-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig_multi.csv"), "fig_multi.golden.csv")
}

// TestGoldenFaultsCSV pins the fault-churn series for a fixed seed: two
// sessions crossed with three churn rates, all four protocols, two workers —
// so the fixture guards both the randomized fault plans' determinism and the
// runner's workers-invariance at the CLI boundary. The churn-0 rows double as
// a regression check that installing the fault subsystem leaves fault-free
// sessions bit-identical.
func TestGoldenFaultsCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "faults", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig_faults.csv"), "fig_faults.golden.csv")
}

// TestGoldenSchemesCSV pins the coding-scheme sweep for a fixed seed: three
// schemes crossed with three redundancy levels and four chain lengths, two
// workers — so the fixture guards the strategy layer's determinism at the CLI
// boundary. TestSchemesGoldenRecodingGain separately asserts the headline
// ordering inside the fixture.
func TestGoldenSchemesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "schemes", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig_schemes.csv"), "fig_schemes.golden.csv")
}

// TestGoldenDriftCSV pins the link-drift sweep for a fixed seed: two sessions
// under five jitter levels, three epochs each, two workers. The fixture was
// generated by the build that still ran the sweep from its own copy of the
// deployment and session set-up, so it holds the shared set-up to the same
// bytes — and any re-expression of the sweep on the fault pipeline has its
// oracle here.
func TestGoldenDriftCSV(t *testing.T) {
	dir := t.TempDir()
	if err := runArgs("-fig", "drift", "-sessions", "2", "-duration", "60", "-seed", "7", "-csv", dir, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join(dir, "fig_drift.csv"), "fig_drift.golden.csv")
}

// TestEmptyCommandLineHashesLikeMinimalSpecs: every Spec omnc-fig builds
// from a bare -fig carries its flags' spelled-out defaults, and must still
// share the content address of the minimal Spec naming the same figure.
func TestEmptyCommandLineHashesLikeMinimalSpecs(t *testing.T) {
	for fig, minimal := range map[string]string{
		"1":       `{"version":1,"kind":"fig1","seed":1}`,
		"2l":      `{"version":1,"kind":"comparison","seed":1,"figures":["2l"]}`,
		"drift":   `{"version":1,"kind":"drift","seed":1}`,
		"multi":   `{"version":1,"kind":"multi","seed":1}`,
		"faults":  `{"version":1,"kind":"faults","seed":1}`,
		"schemes": `{"version":1,"kind":"schemes","seed":1}`,
	} {
		f, err := parse("-fig", fig)
		if err != nil {
			t.Fatal(err)
		}
		want, err := jobs.Decode([]byte(minimal))
		if err != nil {
			t.Fatal(err)
		}
		got := f.spec(want.Kind, want.Figures...)
		if got.Hash() != want.Hash() {
			t.Errorf("-fig %s builds %+v, hashing %s; the minimal Spec hashes %s", fig, got, got.Hash(), want.Hash())
		}
	}
}

// TestSchemesGoldenRecodingGain reads the committed schemes fixture and
// asserts the claim the figure exists to demonstrate: on every chain of 3 or
// more hops, rateless full-recoding RLNC strictly out-delivers source-only
// Reed-Solomon.
func TestSchemesGoldenRecodingGain(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig_schemes.golden.csv"))
	if err != nil {
		t.Fatalf("%v (run TestGoldenSchemesCSV with -update first)", err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// throughput by (scheme, redundancy, hops)
	tp := make(map[[3]string]float64)
	hopSet := make(map[string]bool)
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		tp[[3]string{row[0], row[1], row[2]}] = v
		hopSet[row[2]] = true
	}
	checked := 0
	for hops := range hopSet {
		h, _ := strconv.Atoi(hops)
		if h < 3 {
			continue
		}
		rlnc, ok := tp[[3]string{"rlnc", "0.00", hops}]
		rs, rsOK := tp[[3]string{"rs", "0.00", hops}]
		if !ok || !rsOK {
			t.Fatalf("fixture is missing rateless cells at %s hops", hops)
		}
		if rlnc <= rs {
			t.Fatalf("at %s hops full-recoding RLNC (%v B/s) does not beat source-only RS (%v B/s)", hops, rlnc, rs)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("fixture has no chains of 3 or more hops")
	}
}

// compareGolden diffs got against testdata/<name>, rewriting the fixture
// under -update.
func compareGolden(t *testing.T, gotPath, name string) {
	t.Helper()
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure data drifted from %s (%d vs %d bytes); rerun with -update if the change is intentional",
			golden, len(got), len(want))
	}
}

// runArgs drives omnc-fig the way main does: register the flags, parse the
// command line, run.
func runArgs(args ...string) error {
	f, err := parse(args...)
	if err != nil {
		return err
	}
	return f.run(context.Background())
}

func parse(args ...string) (*flags, error) {
	fs := flag.NewFlagSet("omnc-fig", flag.ContinueOnError)
	f := register(fs)
	return f, fs.Parse(args)
}
