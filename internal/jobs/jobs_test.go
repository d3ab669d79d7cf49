package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	src, dst := 12, 91
	specs := []Spec{
		{Version: 1, Kind: KindFig1},
		{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Sessions: 2, Duration: 60, Seed: 7, Workers: 2},
		{Version: 1, Kind: KindSession, Protocol: "more", Src: &src, Dst: &dst, Seed: 3, Scheme: "rs", Redundancy: 1.5},
		{Version: 1, Kind: KindSession, CBRRate: -1, Trials: 4},
		{Version: 1, Kind: KindTopo, Nodes: 50, MeanQuality: 0.91},
		{Version: 1, Kind: KindLoopback, Trials: 2, GenerationSize: 8},
	}
	for _, want := range specs {
		buf, err := want.Encode()
		if err != nil {
			t.Fatalf("%s: %v", want.Kind, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip drifted:\n got %+v\nwant %+v", want.Kind, got, want)
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("%s: hash not stable across round trip", want.Kind)
		}
		if len(got.Hash()) != 16 {
			t.Fatalf("%s: hash %q is not 16 hex chars", want.Kind, got.Hash())
		}
	}
}

// TestHashNormalization: Specs that name the same computation — list order
// permuted, defaults spelled out — must share one content address, while
// Specs naming different computations must not.
func TestHashNormalization(t *testing.T) {
	equivalent := [][2]Spec{
		{
			{Version: 1, Kind: KindComparison, Figures: []string{"2l", "3"}},
			{Version: 1, Kind: KindComparison, Figures: []string{"3", "2l"}},
		},
		{
			{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Protocols: []string{"omnc", "etx"}},
			{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Protocols: []string{"etx", "omnc"}},
		},
		{
			{Version: 1, Kind: KindComparison, Figures: []string{"2l"}},
			{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Protocols: []string{"omnc", "more", "oldmore", "etx"}},
		},
		{
			{Version: 1, Kind: KindSession},
			{Version: 1, Kind: KindSession, Scheme: "rlnc", Protocol: "omnc", MAC: "oracle", Trials: 1},
		},
	}
	for i, pair := range equivalent {
		if pair[0].Hash() != pair[1].Hash() {
			t.Errorf("pair %d: equivalent specs hash apart: %+v vs %+v", i, pair[0], pair[1])
		}
	}
	distinct := [][2]Spec{
		{
			{Version: 1, Kind: KindSession},
			{Version: 1, Kind: KindSession, Scheme: "rs"},
		},
		{
			{Version: 1, Kind: KindSession},
			{Version: 1, Kind: KindSession, Trials: 2},
		},
		{
			{Version: 1, Kind: KindComparison, Figures: []string{"2l"}},
			{Version: 1, Kind: KindComparison, Figures: []string{"3"}},
		},
	}
	for i, pair := range distinct {
		if pair[0].Hash() == pair[1].Hash() {
			t.Errorf("pair %d: different specs hash alike: %+v vs %+v", i, pair[0], pair[1])
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"version":1,"kind":"fig1","sessoins":3}`)); err == nil {
		t.Fatal("typo'd field must be rejected, not silently dropped")
	}
	if _, err := Decode([]byte(`{"version":1,"kind":"fig1"}{"version":1,"kind":"topo"}`)); err == nil {
		t.Fatal("trailing second document must be rejected")
	}
	// A client still speaking the retired bench kind is told what exists,
	// and its iters field is a typo like any other.
	_, err := Decode([]byte(`{"version":1,"kind":"bench"}`))
	if err == nil {
		t.Fatal("the retired bench kind must be rejected")
	}
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), k) {
			t.Fatalf("unknown-kind error %q does not name the valid kind %q", err, k)
		}
	}
	if _, err := Decode([]byte(`{"version":1,"kind":"fig1","iters":3}`)); err == nil || !strings.Contains(err.Error(), `unknown field "iters"`) {
		t.Fatalf("iters must fail as an unknown field, got %v", err)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	src := 3
	bad := []Spec{
		{Version: 2, Kind: KindFig1},                                            // wrong version
		{Version: 1, Kind: "figment"},                                           // unknown kind
		{Version: 1, Kind: KindComparison},                                      // no figures
		{Version: 1, Kind: KindComparison, Figures: []string{"5"}},              // unknown figure
		{Version: 1, Kind: KindComparison, Figures: []string{"2r", "3"}},        // 2r is exclusive
		{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, MAC: "tdm"}, // unknown mac
		{Version: 1, Kind: KindSession, Protocol: "ospf"},                       // unknown protocol
		{Version: 1, Kind: KindSession, Src: &src},                              // src without dst
		{Version: 1, Kind: KindSession, Report: true, Trials: 2},                // report needs one trial
		{Version: 1, Kind: KindSession, Trace: true, Trials: 2},                 // trace needs one trial
		{Version: 1, Kind: KindSession, Scheme: "fountain"},                     // unknown scheme
		{Version: 1, Kind: KindSession, Redundancy: 0.5},                        // sub-unit redundancy
		{Version: 1, Kind: KindSession, MeanQuality: 1.5},                       // quality outside [0,1]
		{Version: 1, Kind: KindFig1, Trials: -1},                                // negative count
		{Version: 1, Kind: KindMulti, Faults: nil, Sessions: -1},                // negative count
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) must fail validation", i, s)
		}
	}
}

func TestUnitsMatchCLIProgressTotals(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Sessions: 2}, 2},
		{Spec{Version: 1, Kind: KindMulti}, 8},               // counts {1,2,4,6} x 2 trials... capped below
		{Spec{Version: 1, Kind: KindMulti, Sessions: 2}, 4},  // counts {1,2} x 2 trials
		{Spec{Version: 1, Kind: KindFaults, Sessions: 2}, 6}, // 2 sessions x churn {0,2,5}
		{Spec{Version: 1, Kind: KindSchemes}, 72},            // 4 hops x 3 schemes x 3 redundancies x 2 trials
		{Spec{Version: 1, Kind: KindSession, Trials: 5}, 5},
		{Spec{Version: 1, Kind: KindFig1}, 0}, // fig1 reports no incremental progress
		{Spec{Version: 1, Kind: KindDrift}, 0},
	}
	for _, c := range cases {
		if got := c.spec.Units(); got != c.want {
			t.Errorf("%s: Units() = %d, want %d", c.spec.Kind, got, c.want)
		}
	}
	if got := (Spec{Version: 1, Kind: KindMulti}).Units(); got != 8 {
		t.Errorf("multi default Units() = %d, want 8", got)
	}
}

// TestGoldenFig2Equivalence is the tentpole's keystone: running the golden
// figure Spec through jobs.Run must produce byte-for-byte the CSV that
// omnc-fig's pinned fixture holds — the daemon path and the CLI path are the
// same computation.
func TestGoldenFig2Equivalence(t *testing.T) {
	s := Spec{Version: 1, Kind: KindComparison, Figures: []string{"2l"},
		Sessions: 2, Duration: 60, Seed: 7, Workers: 2}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact("fig2l_gains.csv")
	if a == nil {
		t.Fatal("comparison job produced no fig2l_gains.csv artifact")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "cmd", "omnc-fig", "testdata", "fig2l_gains.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, want) {
		t.Fatalf("jobs.Run drifted from the CLI golden fixture (%d vs %d bytes)", len(a.Data), len(want))
	}
}

// TestGoldenMultiEquivalence pins the multi kind against the CLI's committed
// fixture the same way.
func TestGoldenMultiEquivalence(t *testing.T) {
	s := Spec{Version: 1, Kind: KindMulti, Sessions: 2, Duration: 60, Seed: 7, Workers: 2}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact("fig_multi.csv")
	if a == nil {
		t.Fatal("multi job produced no fig_multi.csv artifact")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "cmd", "omnc-fig", "testdata", "fig_multi.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, want) {
		t.Fatalf("jobs.Run drifted from the CLI golden fixture (%d vs %d bytes)", len(a.Data), len(want))
	}
}

// sessionSpec is a cheap, fully deterministic session job used by the queue
// and store tests.
func sessionSpec() Spec {
	return Spec{Version: 1, Kind: KindSession, Nodes: 120, MinHops: 2, MaxHops: 6,
		Duration: 10, Seed: 3, Protocol: "etx"}
}

func TestSessionRunDeterministic(t *testing.T) {
	s := sessionSpec()
	a, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("same spec, different summaries:\n%s\n%s", a.Summary, b.Summary)
	}
	if a.Src == nil || b.Src == nil || *a.Src != *b.Src || *a.Dst != *b.Dst {
		t.Fatal("endpoint placement is not a pure function of the seed")
	}
}

func TestSessionReportAndTraceArtifacts(t *testing.T) {
	s := sessionSpec()
	// OMNC, not ETX: the trace must have coded-protocol events in it.
	s.Protocol = "omnc"
	s.Report = true
	s.Trace = true
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Artifact("report.json")
	if rep == nil {
		t.Fatal("no report.json artifact")
	}
	var head map[string]any
	if err := json.Unmarshal(rep.Data, &head); err != nil {
		t.Fatalf("report.json is not valid JSON: %v", err)
	}
	tr := res.Artifact("trace.jsonl")
	if tr == nil || len(tr.Data) == 0 {
		t.Fatal("no trace.jsonl artifact")
	}
}

func TestTopoLandsLinksCSV(t *testing.T) {
	res, err := Run(context.Background(), Spec{Version: 1, Kind: KindTopo, Nodes: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact("links.csv")
	if a == nil {
		t.Fatal("no links.csv artifact")
	}
	if !bytes.HasPrefix(a.Data, []byte("from,to,probability,distance_m\n")) {
		t.Fatalf("links.csv header drifted: %q", a.Data[:40])
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sessionSpec()); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

func TestQueueLifecycleAndCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.jsonl")

	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := q.Submit(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Version: 1, Kind: KindFig1}); err != nil {
		t.Fatal(err)
	}
	claimed, ok, err := q.Claim()
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if claimed.ID != j1.ID || claimed.State != JobRunning {
		t.Fatalf("claimed %+v, want %s running", claimed, j1.ID)
	}
	// Crash: the process dies with j1 claimed. Reopening must requeue it.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q, err = OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	got, ok := q.Get(j1.ID)
	if !ok || got.State != JobPending || got.Requeues != 1 {
		t.Fatalf("after crash recovery: %+v, want pending with 1 requeue", got)
	}
	// FIFO: the recovered job is claimed first, runs, and completes.
	again, ok, err := q.Claim()
	if err != nil || !ok || again.ID != j1.ID {
		t.Fatalf("re-claim: %+v ok=%v err=%v", again, ok, err)
	}
	res, err := Run(context.Background(), again.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Done(again.ID, res.Spec.Hash()); err != nil {
		t.Fatal(err)
	}
	// The re-run is bit-identical to a fresh run of the same Spec.
	fresh, err := Run(context.Background(), again.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Summary != res.Summary {
		t.Fatalf("re-run after crash drifted: %q vs %q", res.Summary, fresh.Summary)
	}
	// Illegal transitions are rejected.
	if err := q.Done(again.ID, "x"); err == nil {
		t.Fatal("done on a done job must fail")
	}
	if err := q.Requeue(j1.ID); err == nil {
		t.Fatal("requeue on a done job must fail")
	}
	// State survives another reopen verbatim.
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	final, ok := q2.Get(j1.ID)
	if !ok || final.State != JobDone || final.Run != res.Spec.Hash() {
		t.Fatalf("after reopen: %+v, want done with run %s", final, res.Spec.Hash())
	}
	if jobs := q2.List(); len(jobs) != 2 || jobs[1].State != JobPending {
		t.Fatalf("list after reopen: %+v", jobs)
	}
}

func TestQueueToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Version: 1, Kind: KindFig1}); err != nil {
		t.Fatal(err)
	}
	// Claim so the next open's crash recovery appends a requeue record of
	// its own — the first write after the torn fragment.
	if _, ok, err := q.Claim(); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unparseable final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if jobs := q2.List(); len(jobs) != 1 || jobs[0].State != JobPending {
		t.Fatalf("after torn line: %+v", jobs)
	}
	// The fragment must be truncated away, not appended onto: everything
	// written since — the recovery requeue and this submit — must survive
	// yet another replay intact.
	if _, err := q2.Submit(Spec{Version: 1, Kind: KindMulti}); err != nil {
		t.Fatal(err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	q3, err := OpenQueue(path)
	if err != nil {
		t.Fatalf("journal corrupt after post-recovery appends: %v", err)
	}
	defer q3.Close()
	jobs := q3.List()
	if len(jobs) != 2 || jobs[0].State != JobPending || jobs[1].State != JobPending {
		t.Fatalf("after reopen: %+v", jobs)
	}
	if jobs[0].Requeues != 1 {
		t.Fatalf("recovery requeue lost: %+v", jobs[0])
	}
}

func TestQueueDropsUnterminatedFinalRecord(t *testing.T) {
	// A parseable final line with no trailing newline is still a torn append
	// (record and newline are one write): it was never acknowledged durable,
	// and keeping it would make the next append concatenate onto it.
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Version: 1, Kind: KindFig1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"j2","spec":{"version":1,"kind":"topo"}}`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := q2.List(); len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("unterminated record must be dropped: %+v", jobs)
	}
	if _, err := q2.Submit(Spec{Version: 1, Kind: KindMulti}); err != nil {
		t.Fatal(err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	q3, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if jobs := q3.List(); len(jobs) != 2 {
		t.Fatalf("after reopen: %+v", jobs)
	}
}

func TestQueueRejectsInvalidSpec(t *testing.T) {
	q, err := OpenQueue(filepath.Join(t.TempDir(), "queue.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Submit(Spec{Version: 1, Kind: "figment"}); err == nil {
		t.Fatal("invalid spec must be rejected at submit")
	}
}

func TestStoreLandGetList(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Spec:      Spec{Version: 1, Kind: KindFig1, Seed: 9},
		Summary:   "landed by test",
		Artifacts: []Artifact{newArtifact("fig1_convergence.csv", []byte("iteration\n1\n"))},
	}
	id, err := st.Land(res)
	if err != nil {
		t.Fatal(err)
	}
	if id != res.Spec.Hash() {
		t.Fatalf("run id %q, want the spec hash %q", id, res.Spec.Hash())
	}
	run, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if run.Kind != KindFig1 || run.Summary != "landed by test" || len(run.Artifacts) != 1 {
		t.Fatalf("stored head drifted: %+v", run)
	}
	data, err := st.ReadArtifact(id, "fig1_convergence.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "iteration\n1\n" {
		t.Fatalf("artifact bytes drifted: %q", data)
	}
	// Landing the same spec again replaces idempotently.
	if id2, err := st.Land(res); err != nil || id2 != id {
		t.Fatalf("re-land: id %q err %v", id2, err)
	}
	runs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != id {
		t.Fatalf("list: %+v", runs)
	}
	// Traversal attempts are rejected.
	if _, err := st.ReadArtifact(id, "../queue.jsonl"); err == nil {
		t.Fatal("path traversal in artifact name must be rejected")
	}
	if _, err := st.ReadArtifact("../"+id, "fig1_convergence.csv"); err == nil {
		t.Fatal("path traversal in run id must be rejected")
	}
	if _, err := st.Get("zz"); err == nil {
		t.Fatal("malformed run id must be rejected")
	}
}
