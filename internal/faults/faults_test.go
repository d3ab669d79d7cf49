package faults

import (
	"errors"
	"reflect"
	"testing"
)

func TestValidateAcceptsWellFormedPlan(t *testing.T) {
	p := &Plan{Seed: 3, Events: []Event{
		{At: 1, Kind: NodeCrash, Node: 4},
		{At: 2, Kind: LinkFlap, From: 1, To: 2, Duration: 3},
		{At: 2, Kind: BurstLoss, From: 2, To: 5, Duration: 4, BadFactor: 0.1},
		{At: 6, Kind: NodeRecover, Node: 4},
		{At: 7, Kind: LinkFlap, From: 2, To: 1, Duration: 1}, // first flap ended at 5
		{At: 8, Kind: QualityDrift, Jitter: 0.3, Duration: 2},
		{At: 9, Kind: QualityDrift}, // no jitter, no dead time: a bare re-plan
	}}
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(0); err != nil {
		t.Fatalf("range checks disabled: %v", err)
	}
}

func TestValidateNilAndEmptyPlans(t *testing.T) {
	var p *Plan
	if err := p.Validate(5); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if err := new(Plan).Validate(5); err != nil {
		t.Fatalf("empty plan: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	inf := 1.0
	for i := 0; i < 12; i++ {
		inf *= 1e30 // +Inf without importing math
	}
	cases := map[string]*Plan{
		"out of order": {Events: []Event{
			{At: 5, Kind: NodeCrash, Node: 1},
			{At: 4, Kind: NodeRecover, Node: 1},
		}},
		"negative time": {Events: []Event{{At: -1, Kind: NodeCrash, Node: 1}}},
		"infinite time": {Events: []Event{{At: inf, Kind: NodeCrash, Node: 1}}},
		"double crash": {Events: []Event{
			{At: 1, Kind: NodeCrash, Node: 1},
			{At: 2, Kind: NodeCrash, Node: 1},
		}},
		"unmatched recover": {Events: []Event{{At: 1, Kind: NodeRecover, Node: 1}}},
		"node out of range": {Events: []Event{{At: 1, Kind: NodeCrash, Node: 7}}},
		"negative node":     {Events: []Event{{At: 1, Kind: NodeCrash, Node: -2}}},
		"self link":         {Events: []Event{{At: 1, Kind: LinkFlap, From: 2, To: 2, Duration: 1}}},
		"zero duration":     {Events: []Event{{At: 1, Kind: LinkFlap, From: 1, To: 2}}},
		"overlapping episodes": {Events: []Event{
			{At: 1, Kind: LinkFlap, From: 1, To: 2, Duration: 5},
			{At: 3, Kind: BurstLoss, From: 2, To: 1, Duration: 1}, // same unordered link
		}},
		"bad factor one":        {Events: []Event{{At: 1, Kind: BurstLoss, From: 1, To: 2, Duration: 1, BadFactor: 1}}},
		"negative sojourn":      {Events: []Event{{At: 1, Kind: BurstLoss, From: 1, To: 2, Duration: 1, MeanGood: -1}}},
		"unknown kind":          {Events: []Event{{At: 1, Kind: "meteor", Node: 1}}},
		"synthesized kind":      {Events: []Event{{At: 1, Kind: LinkRestore, From: 1, To: 2, Duration: 1}}},
		"jitter one":            {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: 1}}},
		"negative jitter":       {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: -0.1}}},
		"nan jitter":            {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: inf - inf}}},
		"negative dead time":    {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: 0.2, Duration: -1}}},
		"infinite dead time":    {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: 0.2, Duration: inf}}},
		"nan dead time":         {Events: []Event{{At: 1, Kind: QualityDrift, Jitter: 0.2, Duration: inf - inf}}},
		"synthesized drift-end": {Events: []Event{{At: 1, Kind: DriftEnd, Jitter: 0.2, Duration: 1}}},
	}
	for name, p := range cases {
		err := p.Validate(5)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: error %v does not wrap ErrInvalidPlan", name, err)
		}
	}
}

func TestDecodePlanRoundTrip(t *testing.T) {
	p := &Plan{Seed: 11, Events: []Event{
		{At: 1.5, Kind: NodeCrash, Node: 3},
		{At: 2, Kind: BurstLoss, From: 1, To: 4, Duration: 2.5, BadFactor: 0.2, MeanGood: 0.4, MeanBad: 0.05},
		{At: 9, Kind: NodeRecover, Node: 3},
		{At: 9.5, Kind: QualityDrift, Jitter: 0.25, Duration: 1.5},
	}}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, p)
	}
}

func TestDecodePlanRejectsMalformedInput(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":     `{"events": [`,
		"wrong type":   `{"events": [{"at": "soon", "kind": "crash"}]}`,
		"invalid plan": `{"events": [{"at": 2, "kind": "recover", "node": 1}]}`,
	} {
		if _, err := DecodePlan([]byte(doc)); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: error %v does not wrap ErrInvalidPlan", name, err)
		}
	}
}

func TestRandomPlanDeterministicAndValid(t *testing.T) {
	cfg := RandomPlanConfig{
		Nodes:     []int{2, 3, 5, 8},
		Links:     [][2]int{{2, 3}, {3, 5}, {5, 8}},
		Horizon:   100,
		CrashRate: 0.05, FlapRate: 0.05, BurstRate: 0.05,
		BadFactor: 0.1,
		Seed:      42,
	}
	a, err := RandomPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config, different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("rates 0.05 over 100 s produced no events")
	}
	if err := a.Validate(9); err != nil {
		t.Fatal(err)
	}
	// Only input kinds may appear, and candidates are respected.
	nodeOK := map[int]bool{2: true, 3: true, 5: true, 8: true}
	for _, ev := range a.Events {
		switch ev.Kind {
		case NodeCrash, NodeRecover:
			if !nodeOK[ev.Node] {
				t.Fatalf("event targets non-candidate node %d", ev.Node)
			}
		case LinkFlap, BurstLoss:
			if !nodeOK[ev.From] || !nodeOK[ev.To] {
				t.Fatalf("episode targets non-candidate link (%d,%d)", ev.From, ev.To)
			}
		default:
			t.Fatalf("random plan emitted kind %q", ev.Kind)
		}
	}
	// A different seed must give a different schedule.
	cfg.Seed = 43
	c, err := RandomPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds, identical plans")
	}
}

func TestRandomPlanRejectsBadHorizon(t *testing.T) {
	if _, err := RandomPlan(RandomPlanConfig{}); !errors.Is(err, ErrInvalidPlan) {
		t.Fatalf("zero horizon: %v", err)
	}
}
