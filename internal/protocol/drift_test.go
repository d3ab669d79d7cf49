package protocol

import (
	"errors"
	"math"
	"testing"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// driftPlan drifts the network at each of the given times.
func driftPlan(seed int64, jitter, dur float64, at ...float64) *faults.Plan {
	p := &faults.Plan{Seed: seed}
	for _, t := range at {
		p.Events = append(p.Events, faults.Event{At: t, Kind: faults.QualityDrift, Jitter: jitter, Duration: dur})
	}
	return p
}

// TestDriftDeadTimeCostsThroughput: the same drifts with longer
// re-initiation windows never decode more, and a long window decodes less.
func TestDriftDeadTimeCostsThroughput(t *testing.T) {
	nw := diamond(t)
	var tps []float64
	for _, dur := range []float64{0, 10, 20, 40} {
		cfg := fastConfig(62)
		cfg.Duration = 240
		cfg.Faults = driftPlan(5, 0.2, dur, 60, 120, 180)
		st, err := OMNC(core.Options{}).Run(nw, 0, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tps = append(tps, st.Throughput)
	}
	for i := 1; i < len(tps); i++ {
		if tps[i] > tps[i-1] {
			t.Fatalf("throughput rose with the dead time: %v", tps)
		}
	}
	if tps[len(tps)-1] >= tps[0] {
		t.Fatalf("120 s of dead time in 240 cost nothing: %v", tps)
	}
}

// TestDriftSessionKeepsDecoding: ±25 % drift disconnects nothing — the
// session decodes generations in every epoch, re-solving its rates for the new
// qualities each time.
func TestDriftSessionKeepsDecoding(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 80, Density: 6, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := -1, -1
	for d := 1; d < nw.Size(); d++ {
		if sg, err := core.SelectNodes(nw, 0, d); err == nil && sg.Size() >= 5 {
			src, dst = 0, d
			break
		}
	}
	if src < 0 {
		t.Skip("no usable session")
	}
	buf := trace.NewBuffer()
	cfg := fastConfig(65)
	cfg.Duration = 360
	cfg.Trace = buf
	cfg.Faults = driftPlan(2, 0.25, 5, 120, 240)
	st, err := OMNC(core.Options{}).Run(nw, src, dst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var perEpoch [3]int
	for _, ev := range buf.Events() {
		if ev.Type == trace.EventDecode {
			perEpoch[int(ev.Time/120)]++
		}
	}
	for i, n := range perEpoch {
		if n == 0 {
			t.Fatalf("epoch %d decoded nothing: %v", i, perEpoch)
		}
	}
	if st.Throughput <= 0 || buf.Count(trace.EventReplan) != 2 {
		t.Fatalf("throughput %v, %d replans", st.Throughput, buf.Count(trace.EventReplan))
	}
}

// TestDriftPlanValidation: a malformed drift is rejected at install time with
// the fault subsystem's typed error, before anything runs.
func TestDriftPlanValidation(t *testing.T) {
	nw := diamond(t)
	for name, ev := range map[string]faults.Event{
		"jitter >= 1":        {At: 1, Kind: faults.QualityDrift, Jitter: 1.2},
		"negative jitter":    {At: 1, Kind: faults.QualityDrift, Jitter: -0.2},
		"negative dead time": {At: 1, Kind: faults.QualityDrift, Jitter: 0.2, Duration: -5},
		"infinite dead time": {At: 1, Kind: faults.QualityDrift, Jitter: 0.2, Duration: math.Inf(1)},
	} {
		cfg := fastConfig(64)
		cfg.Faults = &faults.Plan{Events: []faults.Event{ev}}
		if _, err := OMNC(core.Options{}).Run(nw, 0, 3, cfg); !errors.Is(err, faults.ErrInvalidPlan) {
			t.Errorf("%s: err = %v, want ErrInvalidPlan", name, err)
		}
		if _, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 3}}, OMNC(core.Options{}), cfg); !errors.Is(err, faults.ErrInvalidPlan) {
			t.Errorf("%s (multi): err = %v, want ErrInvalidPlan", name, err)
		}
	}
}

// TestRunMultiDriftedLinksDeliverAtTheNewProbability assembles RunMulti's
// environment by hand to keep hold of the shared MAC: after a hard drift at
// time zero, every busy link's delivered/sent ratio must sit at the drifted
// probability the injector plans with, on both sessions' links at once.
func TestRunMultiDriftedLinksDeliverAtTheNewProbability(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(93).WithDefaults()
	cfg.Duration = 600
	endpoints := []Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}
	specs := make([]SessionSpec, len(endpoints))
	for i, ep := range endpoints {
		sg, err := core.SelectNodes(nw, ep.Src, ep.Dst)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = SessionSpec{ID: i, Src: ep.Src, Dst: ep.Dst, Subgraph: sg}
	}
	env, err := NewEnv(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.InstallFaults(driftPlan(8, 0.6, 0, 0), nw, nil, nil); err != nil {
		t.Fatal(err)
	}
	runs, err := OMNC(core.Options{}).build(env, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range runs {
		s.Start()
	}
	env.Eng.Run(cfg.Duration)
	for _, s := range runs {
		if st := s.Finish(cfg.Duration); st.GenerationsDecoded == 0 {
			t.Fatal("a session decoded nothing under drift")
		}
	}
	checked, degraded := 0, 0
	for _, sp := range specs {
		for _, l := range sp.Subgraph.Links {
			a, b := sp.Subgraph.Nodes[l.From], sp.Subgraph.Nodes[l.To]
			sent := env.MAC.FramesSent(a)
			if sent < 1000 {
				continue
			}
			factor := env.Faults.LinkFactor(a, b)
			want := nw.Prob(a, b) * factor
			ratio := float64(env.MAC.Delivered(a, b)) / float64(sent)
			if math.Abs(ratio-want) > 0.05 {
				t.Errorf("link %d->%d: delivered/sent %.3f, drifted probability %.3f (nominal %.3f)",
					a, b, ratio, want, nw.Prob(a, b))
			}
			checked++
			if factor < 0.75 {
				degraded++
			}
		}
	}
	if checked == 0 || degraded == 0 {
		t.Fatalf("%d links sampled, %d of them strongly degraded; the scenario proves nothing", checked, degraded)
	}
}
