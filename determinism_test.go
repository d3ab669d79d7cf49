package omnc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"omnc"
)

// The differential determinism suite proves the parallel engine's central
// contract: same seed -> bit-identical SessionStats, trace byte streams and
// Reports at ANY engine worker count, for all four protocols, single- and
// multi-session, fault-free, under crash churn, and under churn plus
// link-quality drift. The serial engine
// (EngineWorkers 0) is the reference; worker counts 1, 2 and 8 exercise the
// parallel engine's round machinery single-threaded, lightly contended and
// oversubscribed. Everything here must also pass under -race (CI runs it in
// a GOMAXPROCS matrix), which is what upgrades "the outputs matched" into
// "and no unsynchronized access produced them".

// detWorkerCounts: 0 selects the serial engine; the rest the parallel one.
var detWorkerCounts = []int{0, 1, 2, 8}

// detRun is everything observable from one emulation, in comparable form.
type detRun struct {
	stats      *omnc.SessionStats
	multi      *omnc.MultiStats
	errText    string
	traceJSONL []byte
	reportJSON []byte
}

func traceBytes(t *testing.T, buf *omnc.TraceBuffer) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := buf.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func reportJSON(t *testing.T, st *omnc.SessionStats) []byte {
	t.Helper()
	if st == nil || st.Report == nil {
		return nil
	}
	buf, err := json.Marshal(st.Report)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// compareRuns demands the two runs are observably identical.
func compareRuns(t *testing.T, want, got detRun, label string) {
	t.Helper()
	if want.errText != got.errText {
		t.Fatalf("%s: error diverged: serial %q vs %q", label, want.errText, got.errText)
	}
	if want.stats != nil || got.stats != nil {
		if !reflect.DeepEqual(want.stats, got.stats) {
			t.Errorf("%s: SessionStats diverged from serial engine:\nserial: %+v\n   got: %+v",
				label, want.stats, got.stats)
		}
	}
	if want.multi != nil || got.multi != nil {
		if !reflect.DeepEqual(want.multi, got.multi) {
			t.Errorf("%s: MultiStats diverged from serial engine:\nserial: %+v\n   got: %+v",
				label, want.multi, got.multi)
		}
	}
	if !bytes.Equal(want.traceJSONL, got.traceJSONL) {
		t.Errorf("%s: trace byte stream diverged from serial engine (%d vs %d bytes)",
			label, len(want.traceJSONL), len(got.traceJSONL))
	}
	if !bytes.Equal(want.reportJSON, got.reportJSON) {
		t.Errorf("%s: Report diverged from serial engine (%d vs %d bytes)",
			label, len(want.reportJSON), len(got.reportJSON))
	}
}

func detFaultPlan(t *testing.T, nw *omnc.Network, protect map[int]bool, seed int64) *omnc.FaultPlan {
	t.Helper()
	var candidates []int
	for n := 0; n < nw.Size(); n++ {
		if !protect[n] {
			candidates = append(candidates, n)
		}
	}
	plan, err := omnc.RandomFaultPlan(omnc.RandomFaultPlanConfig{
		Nodes:        candidates,
		Horizon:      8,
		CrashRate:    0.3,
		MeanDowntime: 2,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// withDrifts returns plan plus two link-quality drifts, early enough to land
// inside a three-generation run: the drift draws, the dead-time window and
// the re-plan on drifted qualities must not depend on the engine either.
func withDrifts(plan *omnc.FaultPlan) *omnc.FaultPlan {
	out := &omnc.FaultPlan{Seed: plan.Seed, Events: append([]omnc.FaultEvent(nil), plan.Events...)}
	out.Events = append(out.Events, driftEvent(0.3, 0.3, 0.2), driftEvent(1, 0.2, 0))
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// detVariants are the rows every protocol runs under, by subtest suffix.
func detVariants(plan *omnc.FaultPlan) map[string]*omnc.FaultPlan {
	return map[string]*omnc.FaultPlan{"fault-free": nil, "faulted": plan, "drifted": withDrifts(plan)}
}

func TestEngineDeterminismSingleSession(t *testing.T) {
	nw, err := omnc.GenerateNetwork(40, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	eps := findMultiSessions(t, nw, 1)[0]
	plan := detFaultPlan(t, nw, map[int]bool{eps.Src: true, eps.Dst: true}, 7101)

	runners := map[string]omnc.Protocol{
		"omnc":    omnc.OMNC(omnc.RateOptions{}),
		"more":    omnc.MORE(),
		"oldmore": omnc.OldMORE(),
		"etx":     omnc.ETX(),
	}
	for name, proto := range runners {
		run := func(nw *omnc.Network, src, dst int, cfg omnc.SessionConfig) (*omnc.SessionStats, error) {
			return omnc.Run(nw, src, dst, proto, cfg)
		}
		for variant, plan := range detVariants(plan) {
			run, plan, label := run, plan, name+"/"+variant
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				var ref detRun
				for i, workers := range detWorkerCounts {
					buf := omnc.NewTraceBuffer()
					cfg := chaosConfig(4242, nil) // identical seed in every configuration
					cfg.Trace = buf
					cfg.Report = true
					cfg.MaxGenerations = 3
					cfg.EngineWorkers = workers
					cfg.Faults = plan
					st, err := run(nw, eps.Src, eps.Dst, cfg)
					got := detRun{stats: st, traceJSONL: traceBytes(t, buf), reportJSON: reportJSON(t, st)}
					if err != nil {
						got.errText = err.Error()
					}
					if i == 0 {
						ref = got
						continue
					}
					compareRuns(t, ref, got, fmt.Sprintf("%s workers=%d", label, workers))
				}
			})
		}
	}
}

func TestEngineDeterminismMultiSession(t *testing.T) {
	nw, err := omnc.GenerateNetwork(40, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	sessions := findMultiSessions(t, nw, 2)
	protect := make(map[int]bool)
	for _, ep := range sessions {
		protect[ep.Src] = true
		protect[ep.Dst] = true
	}
	plan := detFaultPlan(t, nw, protect, 7301)

	for pname, proto := range chaosProtocols() {
		for variant, plan := range detVariants(plan) {
			proto, plan, label := proto, plan, pname+"/"+variant
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				var ref detRun
				for i, workers := range detWorkerCounts {
					buf := omnc.NewTraceBuffer()
					cfg := chaosConfig(4711, nil)
					cfg.Trace = buf
					cfg.MaxGenerations = 3
					cfg.EngineWorkers = workers
					cfg.Faults = plan
					ms, err := omnc.RunMulti(nw, sessions, proto, cfg)
					got := detRun{multi: ms, traceJSONL: traceBytes(t, buf)}
					if err != nil {
						got.errText = err.Error()
					}
					if ms != nil {
						// Error values don't compare structurally; fold
						// their texts into errText and compare the rest.
						for si, serr := range ms.SessionErrors {
							if serr != nil {
								got.errText += fmt.Sprintf("|s%d:%v", si, serr)
							}
						}
						msCopy := *ms
						msCopy.SessionErrors = nil
						got.multi = &msCopy
					}
					if i == 0 {
						ref = got
						continue
					}
					compareRuns(t, ref, got, fmt.Sprintf("%s workers=%d", label, workers))
				}
			})
		}
	}
}
