package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"omnc/internal/metrics"
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
// Specs naming different computations must not. The command lines' side of
// this (the Spec each CLI builds from no flags hashes like the minimal one)
// is TestEmptyCommandLineHashesLikeMinimalSpec in each cmd package.
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

	// For every kind and scale, the Spec that spells out every default
	// hashes like the minimal Spec, and a Spec one step off any single
	// default hashes apart. The paper's set-up is written out once more on
	// purpose: it holds the defaults table to the literal numbers a client
	// would type.
	sim := Spec{Nodes: 300, Density: 6, Sessions: 30, MinHops: 4, MaxHops: 10,
		Duration: 200, Capacity: 2e4, CBRRate: 1e4,
		Trials: 1, Protocol: "omnc", MAC: "oracle", Scheme: "rlnc", Field: "8"}
	paper := sim
	paper.Full, paper.Sessions, paper.Duration = true, 300, 800
	loop := Spec{Rate: 200000, GenerationSize: 8, BlockSize: 64, Duration: 2,
		Trials: 1, Protocol: "omnc", MAC: "oracle", Scheme: "rlnc", Field: "8"}

	for _, kind := range Kinds() {
		for _, spelled := range []Spec{sim, paper} {
			if kind == KindLoopback {
				spelled = loop
			}
			spelled.Version, spelled.Kind = 1, kind
			minimal := Spec{Version: 1, Kind: kind, Full: spelled.Full}
			if kind == KindComparison {
				spelled.Figures, minimal.Figures = []string{"2l"}, []string{"2l"}
			}
			if err := spelled.Validate(); err != nil {
				t.Fatalf("%s: spelled-out defaults must validate: %v", kind, err)
			}
			if d := Defaults(kind, spelled.Full); !reflect.DeepEqual(d, withoutFigures(spelled)) {
				t.Errorf("%s full=%v: Defaults() = %+v, want the paper's numbers %+v", kind, spelled.Full, d, withoutFigures(spelled))
			}
			if spelled.Hash() != minimal.Hash() {
				t.Errorf("%s full=%v: spelled-out defaults hash %s, the minimal Spec %s", kind, spelled.Full, spelled.Hash(), minimal.Hash())
			}
			for name, step := range map[string]func(*Spec){
				"nodes":           func(s *Spec) { s.Nodes++ },
				"density":         func(s *Spec) { s.Density++ },
				"sessions":        func(s *Spec) { s.Sessions++ },
				"min_hops":        func(s *Spec) { s.MinHops++ },
				"max_hops":        func(s *Spec) { s.MaxHops++ },
				"duration":        func(s *Spec) { s.Duration++ },
				"capacity":        func(s *Spec) { s.Capacity++ },
				"cbr_rate":        func(s *Spec) { s.CBRRate++ },
				"trials":          func(s *Spec) { s.Trials++ },
				"protocol":        func(s *Spec) { s.Protocol = "etx" },
				"mac":             func(s *Spec) { s.MAC = "csma" },
				"scheme":          func(s *Spec) { s.Scheme = "rlnc-e2e" },
				"field":           func(s *Spec) { s.Field = "16" },
				"rate":            func(s *Spec) { s.Rate++ },
				"generation_size": func(s *Spec) { s.GenerationSize++ },
				"block_size":      func(s *Spec) { s.BlockSize++ },
			} {
				off := spelled
				step(&off)
				if off.Hash() == minimal.Hash() {
					t.Errorf("%s full=%v: %s one step off its default still hashes like the minimal Spec", kind, spelled.Full, name)
				}
			}
		}
	}
}

func withoutFigures(s Spec) Spec {
	s.Figures = nil
	return s
}

// TestPinnedContentAddresses holds Spec.Hash to the strings the build before
// the defaults table produced: one minimal Spec per kind, the daemon
// benchmark's seeded fig1 jobs, and a few Specs that set non-default fields.
// A run directory written by any earlier build must keep its address.
func TestPinnedContentAddresses(t *testing.T) {
	for _, c := range []struct{ json, hash string }{
		{`{"version":1,"kind":"comparison","figures":["2l"]}`, "f4ea7aa88d8ed685"},
		{`{"version":1,"kind":"drift"}`, "a26dfbc90a2bb331"},
		{`{"version":1,"kind":"faults"}`, "6f40f6e67deb9d1d"},
		{`{"version":1,"kind":"fig1"}`, "cba2b371cdc7cece"},
		{`{"version":1,"kind":"loopback"}`, "1ac8ddf8db97986a"},
		{`{"version":1,"kind":"multi"}`, "20030352204a0ca1"},
		{`{"version":1,"kind":"schemes"}`, "da52d507d4edba0c"},
		{`{"version":1,"kind":"session"}`, "413e9678a706e06a"},
		{`{"version":1,"kind":"topo"}`, "350a7c56c17b3932"},
		{`{"version":1,"kind":"fig1","seed":1}`, "c509d9f8f0b1336e"},
		{`{"version":1,"kind":"fig1","seed":4611686018427387904}`, "4552858638e87e05"},
		{`{"version":1,"kind":"session","seed":3,"report":true}`, "1d999a31bd5d8cc0"},
		{`{"version":1,"kind":"comparison","seed":7,"sessions":2,"duration":60,"figures":["2l"],"workers":2}`, "1d449f92dd8c596e"},
		{`{"version":1,"kind":"comparison","full":true,"figures":["3","2l"],"protocols":["omnc","etx"],"mac":"csma"}`, "ad0c3ee050e3dd88"},
		{`{"version":1,"kind":"session","nodes":120,"min_hops":2,"max_hops":6,"duration":10,"seed":3,"protocol":"etx","cbr_rate":-1}`, "80be172e0205cf2e"},
		{`{"version":1,"kind":"loopback","trials":2,"generation_size":16,"scheme":"rs","redundancy":2}`, "9ce414bdf5d28091"},
	} {
		s, err := Decode([]byte(c.json))
		if err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		if got := s.Hash(); got != c.hash {
			t.Errorf("%s: content address moved: %s, pinned %s", c.json, got, c.hash)
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
		{Version: 1, Kind: KindMulti, Report: true},                             // multi keeps no reports
		{Version: 1, Kind: KindFig1, Report: true},                              // nor does fig1
		{Version: 1, Kind: KindSchemes, Field: "16"},                            // RS cells are GF(2^8)-only
		{Version: 1, Kind: KindSchemes, Scheme: "rs"},                           // the sweep is over schemes
		{Version: 1, Kind: KindSchemes, Redundancy: 2},                          // ... and over redundancies
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
		{Spec{Version: 1, Kind: KindFig1}, 0},                // fig1 reports no incremental progress
		{Spec{Version: 1, Kind: KindDrift}, 40},              // 5 jitter levels x 8 sessions
		{Spec{Version: 1, Kind: KindDrift, Sessions: 2}, 10}, // 5 jitter levels x 2 sessions
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

// TestSweepKindsHonourOrRejectScheme: a coding field moves a sweep Spec's
// content address, so it must also move what the sweep computes — or fail
// validation. It may never land the default bytes under a second address.
func TestSweepKindsHonourOrRejectScheme(t *testing.T) {
	for _, kind := range []string{KindDrift, KindMulti, KindFaults, KindSchemes} {
		base := Spec{Version: 1, Kind: kind, Sessions: 2, Duration: 60, Seed: 7, Workers: 2}
		coded := base
		coded.Scheme, coded.Redundancy = "rs", 1.5
		if base.Hash() == coded.Hash() {
			t.Fatalf("%s: scheme does not reach the content address", kind)
		}
		if err := coded.Validate(); err != nil {
			continue // rejected with a reason: nothing can land under the second address
		}
		want, err := Run(context.Background(), base)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got, err := Run(context.Background(), coded)
		if err != nil {
			t.Fatalf("%s under rs: %v", kind, err)
		}
		if bytes.Equal(want.Artifacts[0].Data, got.Artifacts[0].Data) {
			t.Errorf("%s: scheme rs x1.5 landed the default bytes under a new address:\n%s", kind, got.Artifacts[0].Data)
		}
	}
}

// TestDriftReportsProgress: the drift kind ticks its progress sink once per
// (jitter level, session) cell, Units() of them in all.
func TestDriftReportsProgress(t *testing.T) {
	s := Spec{Version: 1, Kind: KindDrift, Sessions: 1, Duration: 60, Seed: 7, Nodes: 120}
	p := metrics.NewProgress(s.Units())
	if _, err := RunWithProgress(context.Background(), s, p); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 5 || p.Done() != p.Total() {
		t.Fatalf("drift progress = %d/%d, want 5/5", p.Done(), p.Total())
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
