package omnc_test

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"omnc/internal/protocol"
	"omnc/internal/sessionbench"
	"omnc/internal/topology"
)

// The allocation ceilings of the pooled hot path, measured on the build
// under test: every row runs one internal/sessionbench scenario warm and
// counts the heap objects of a run. Absolute ceilings sit about 1.3x over
// the value measured when they were set. Run-to-run spread is under 2 % (GC
// timing moves a sync.Pool refill or two) and a solver workspace allocated
// fresh per solve costs +62 (959, measured with RateOptions.FreshWorkspace),
// both inside the headroom; solver scratch re-allocated per iteration
// (about +1430), a lost packet pool or a per-packet allocation are not.
const (
	// omncAllocCeiling bounds one pooled OMNC session (894-897 measured):
	// rate control replans reuse pooled LP tableaus and credit vectors, so
	// the count does not grow with the replan count.
	omncAllocCeiling = 1200
	// multiAllocCeiling bounds two contending OMNC sessions on one shared
	// engine (1506-1523 measured).
	multiAllocCeiling = 2000
	// schemeAllocGate bounds the non-recoding coding schemes against the
	// default RLNC session: queued pooled packets and the RS encoder's arena
	// writes may not cost per-packet allocations.
	schemeAllocGate = 2.0
	// fieldAllocGate bounds the GF(2^16) session against the GF(2^8) one:
	// doubled coefficient bytes and per-scalar tables may not reach the heap.
	fieldAllocGate = 2.0
)

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops items at random and allocation counts mean nothing.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

func TestSessionAllocCeilings(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items randomly under -race; alloc ceilings not meaningful")
	}
	nw, src, dst, err := sessionbench.Network()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		run  func() error
		// The bound is ceiling when set, else gate x the measured ref row;
		// a row with neither is only a reference for later rows.
		ceiling float64
		ref     string
		gate    float64
	}
	session := func(run func(*topology.Network, int, int) (*protocol.Stats, error)) func() error {
		return func() error {
			st, err := run(nw, src, dst)
			if err == nil && st.GenerationsDecoded == 0 {
				err = errors.New("session decoded nothing")
			}
			return err
		}
	}
	omncSession := sessionbench.Scenarios()[0]
	rows := []row{{name: omncSession.Name, run: session(omncSession.Run), ceiling: omncAllocCeiling}}
	schemes := sessionbench.SchemeScenarios()
	rows = append(rows, row{name: schemes[0].Name, run: session(schemes[0].Run)})
	for _, s := range schemes[1:] {
		rows = append(rows, row{name: s.Name, run: session(s.Run), ref: schemes[0].Name, gate: schemeAllocGate})
	}
	for _, s := range sessionbench.FieldScenarios() {
		rows = append(rows, row{name: s.Name, run: session(s.Run), ref: omncSession.Name, gate: fieldAllocGate})
	}
	multi := sessionbench.MultiScenarios()[0]
	rows = append(rows, row{name: multi.Name, ceiling: multiAllocCeiling, run: func() error {
		ms, err := multi.Run(nw)
		if err != nil {
			return err
		}
		for i, st := range ms.PerSession {
			if st.Throughput <= 0 {
				return fmt.Errorf("session %d delivered nothing", i)
			}
		}
		return nil
	}})

	measured := map[string]float64{}
	for _, r := range rows {
		// AllocsPerRun makes one warm-up call (arena fill, lazy tables)
		// before the measured ones.
		allocs := testing.AllocsPerRun(3, func() {
			if err := r.run(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		})
		measured[r.name] = allocs
		limit, why := r.ceiling, "the absolute ceiling"
		if r.ref != "" {
			limit, why = r.gate*measured[r.ref], fmt.Sprintf("%gx %s's %.0f", r.gate, r.ref, measured[r.ref])
		}
		t.Logf("%-24s %6.0f objects/run", r.name, allocs)
		if limit > 0 && allocs > limit {
			t.Errorf("%s allocates %.0f objects/run, above %.0f (%s)", r.name, allocs, limit, why)
		}
	}
}
