package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"omnc"
)

// fake is an instance whose operations are checker verdicts decided by the
// test.
type fake struct {
	fail    map[int]error
	panicAt int
	closed  bool
}

func (f *fake) warmupOp() int { return 0 }
func (f *fake) op(_ context.Context, i int, _ *tracer) ([]byte, error) {
	if f.panicAt > 0 && i == f.panicAt {
		panic("client bug")
	}
	time.Sleep(200 * time.Microsecond)
	if err := f.fail[i]; err != nil {
		return nil, err
	}
	return []byte{byte(i)}, nil
}
func (f *fake) referenceOp(i int) int     { return i }
func (f *fake) usage() (float64, float64) { return 0, 1 }
func (f *fake) inputHash() string         { return "fake" }
func (f *fake) close() error              { f.closed = true; return nil }
func (f *fake) layerMetrics(context.Context, map[string]float64, windowInfo) error {
	return nil
}

// Every checker must be able to fail: each is fed a corrupted output, and
// what it rejects is counted as a failed operation and left out of
// ops_per_s and of the latencies.
func TestCorruptedOutputsAreCountedAsFailures(t *testing.T) {
	good := []byte("fig1 artifact bytes")
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 0x01
	artifactErr := checkArtifact(flipped, sha256.Sum256(good))
	if checkArtifact(good, sha256.Sum256(good)) != nil || artifactErr == nil {
		t.Fatal("checkArtifact does not tell a flipped byte from the reference")
	}

	rates := &omnc.RateResult{B: []float64{1, 2}, X: []float64{1}, Gamma: 10}
	okLP := &omnc.LPResult{Gamma: 12, B: []float64{1, 2}, X: []float64{1}}
	negLP := &omnc.LPResult{Gamma: -1.5e7, B: []float64{1, 2}, X: []float64{1}}
	planErr := checkPlan(negLP, rates, 10)
	if checkPlan(okLP, rates, 10) != nil || planErr == nil {
		t.Fatal("checkPlan does not reject a negative LP optimum")
	}
	if checkPlan(okLP, rates, 12.1) == nil {
		t.Error("checkPlan accepts a distributed gamma above the LP optimum")
	}
	if checkPlan(&omnc.LPResult{Gamma: 12, B: []float64{-1, 2}, X: []float64{1}}, rates, 10) == nil {
		t.Error("checkPlan accepts a negative rate")
	}

	decoded := &omnc.SessionStats{GenerationsDecoded: 4, Throughput: 2000}
	stalled := &omnc.SessionStats{GenerationsDecoded: 0, Throughput: 0}
	sessionErr := checkSession(stalled, 0)
	if checkSession(decoded, 4) != nil || sessionErr == nil {
		t.Fatal("checkSession does not reject zero decoded generations")
	}
	if checkSession(decoded, 3) == nil {
		t.Error("checkSession accepts the wrong generation count")
	}
	multiOK := &omnc.MultiStats{PerSession: []*omnc.SessionStats{{InnovativeReceived: 5, TotalReceived: 9, Throughput: 100}}, AggregateThroughput: 100}
	multiBad := &omnc.MultiStats{PerSession: []*omnc.SessionStats{{InnovativeReceived: 0, TotalReceived: 9}}}
	if checkMulti(multiOK) != nil || checkMulti(multiBad) == nil {
		t.Error("checkMulti does not reject a session that received nothing innovative")
	}

	const n = 20
	f := &fake{fail: map[int]error{3: artifactErr, 8: planErr, 15: sessionErr}}
	p, err := runOps(context.Background(), f, n, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed, first := p.failures()
	if failed != 3 || !strings.Contains(first, "operation 3") {
		t.Errorf("counted %d failures (first %q), want 3 starting at operation 3", failed, first)
	}
	m := endToEndMetrics(p, []float64{0.1, 0.3, 0.2})
	if want := float64(n-3) / p.seconds; m["ops_per_s"] != want {
		t.Errorf("ops_per_s = %v, want %v: failed operations must not count as completed", m["ops_per_s"], want)
	}
	if got := len(p.okLatencies()); got != n-3 {
		t.Errorf("%d latencies, want %d", got, n-3)
	}
	if m["setup_s"] != 0.2 {
		t.Errorf("setup_s = %v, want the median 0.2", m["setup_s"])
	}
}

// A panicking client must not take the process down past the deferred
// teardown: the run ends with an error and the instance is closed.
func TestPanickingClientStillTearsDown(t *testing.T) {
	f := &fake{panicAt: 2}
	w := &workloadDef{name: "fake", opsPerSecond: 8, clients: func() int { return 2 },
		setup: func(context.Context, int64, int, *tracer) (instance, error) { return f, nil }}
	_, err := runWorkload(context.Background(), runConfig{workload: w, seed: 1, seconds: 1})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want the client's panic reported", err)
	}
	if !f.closed {
		t.Error("the instance was not closed after a client panicked")
	}
}

func TestRunReportsEveryEndToEndMetric(t *testing.T) {
	f := &fake{fail: map[int]error{1: errors.New("bad output")}}
	w := &workloadDef{name: "fake", why: "test", opsPerSecond: 8, clients: one,
		setup: func(context.Context, int64, int, *tracer) (instance, error) { return f, nil }}
	res, err := runWorkload(context.Background(), runConfig{workload: w, seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 8 {
		t.Errorf("correct=%v failed=%d attempted=%d, want false, 1, 8", res.Correct, res.Failed, res.Attempted)
	}
	if !reflect.DeepEqual(keys(res.Metrics), sorted(metricNames(endToEnd))) {
		t.Errorf("untraced run reported %v", keys(res.Metrics))
	}
	// The full result survives a JSON round trip.
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back := new(result)
	if err := json.Unmarshal(buf, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", back, res)
	}
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "op_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103}, verdictWithin},
		{lower, steady, []float64{115, 116, 114}, verdictRegressed},
		{lower, steady, []float64{80, 81, 79}, verdictWithin},
		{higher, steady, []float64{85, 86, 84}, verdictRegressed},
		{higher, steady, []float64{120, 121}, verdictWithin},
		// A's own spread exceeds the bound: the instrument cannot tell ...
		{lower, []float64{80, 100, 120, 90, 110}, []float64{100, 101}, verdictUnresolved},
		// ... unless every run of B is better than every run of A.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{60, 70}, verdictWithin},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got.verdict != c.want {
			t.Errorf("case %d: verdict %q (B worse by %.3f, spread A %.3f), want %q", i, got.verdict, got.worse, got.spreadA, c.want)
		}
	}
	if share := failedShare([]*result{{Attempted: 90, Failed: 1}, {Attempted: 10, Failed: 1}}); share != 0.02 {
		t.Errorf("failedShare = %v, want 0.02", share)
	}
}

// The README is the glossary: it names every workload and every metric.
func TestReadmeNamesEveryMetric(t *testing.T) {
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(buf)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	names = append(names, metricNames(endToEnd)...)
	names = append(names, metricNames(perLayer)...)
	for _, n := range names {
		if !strings.Contains(readme, "`"+n+"`") {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}

// BENCHMARK.json is the contract the driver reads; it must say what the
// metric tables say, inside the contract's limits.
func TestManifestMatchesTheTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file, built any
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	mine, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mine, &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, built) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("too many or too few workloads or metrics")
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters, limit 200 on one line", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: unit %q, better %q, bound %v", d.name, d.unit, d.better, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup || runSeconds < 1 || runSeconds > 60 {
		t.Error("setup_s or run_seconds is outside the contract")
	}
}
