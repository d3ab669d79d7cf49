package core

import (
	"reflect"
	"testing"

	"omnc/internal/topology"
)

// The pooled rate-solve workspace must be invisible in the results: a solve
// that draws recycled scratch from ratePool has to produce bit-identical
// numbers to one that allocates everything fresh (Options.FreshWorkspace is
// the oracle). The runs interleave so the pooled solves always see dirty
// workspaces left behind by earlier solves of different sizes.

func reuseSubgraphs(t *testing.T) []*Subgraph {
	t.Helper()
	var sgs []*Subgraph
	for _, seed := range []int64{3, 7, 19} {
		nw, err := topology.Generate(topology.Config{Nodes: 50, Density: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for dst := 1; dst < nw.Size() && len(sgs) < 2*(int(seed)%3+1); dst++ {
			sg, err := SelectNodes(nw, 0, dst)
			if err != nil || sg.Size() < 4 {
				continue
			}
			sgs = append(sgs, sg)
		}
	}
	if len(sgs) < 4 {
		t.Fatal("not enough subgraphs for the reuse property")
	}
	return sgs
}

func TestRunPooledMatchesFresh(t *testing.T) {
	sgs := reuseSubgraphs(t)
	opts := Options{MaxIterations: 400}
	fresh := opts
	fresh.FreshWorkspace = true
	for round := 0; round < 3; round++ {
		for i, sg := range sgs {
			want, err := rateControl1(sg, fresh)
			if err != nil {
				t.Fatalf("round %d sg %d fresh: %v", round, i, err)
			}
			got, err := rateControl1(sg, opts)
			if err != nil {
				t.Fatalf("round %d sg %d pooled: %v", round, i, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d sg %d: pooled solve diverged from fresh:\n got %+v\nwant %+v",
					round, i, got, want)
			}
		}
	}
}

func TestMultiRunPooledMatchesFresh(t *testing.T) {
	sgs := reuseSubgraphs(t)
	sessions := sgs[:3]
	opts := Options{MaxIterations: 300}
	fresh := opts
	fresh.FreshWorkspace = true
	want, err := RateControl(sessions, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Dirty the pool with single-session solves of other sizes first.
		if _, err := rateControl1(sgs[3], opts); err != nil {
			t.Fatal(err)
		}
		got, err := RateControl(sessions, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: pooled joint solve diverged from fresh:\n got %+v\nwant %+v",
				round, got, want)
		}
	}
}
