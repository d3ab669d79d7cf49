package main

import (
	"testing"

	"omnc"
)

// Same seed, same inputs; another seed, other inputs — for every generated
// piece: the deployments, the placements, the operation seeds, the Specs.
func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	profiles := map[string]*profile{"quick": &quickProfile, "paper": &paperProfile, "multi": &multiProfile, "plan": unscreenedPlan()}
	for name, pf := range profiles {
		hash := func(seed int64) string {
			w, err := setupInProcess(seed, pf, 4, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return w.inputHash()
		}
		a, again, b := hash(1), hash(1), hash(2)
		if a != again {
			t.Errorf("%s: seed 1 hashed %s then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 share input hash %s", name, a)
		}
	}
	specs := func(seed int64) string {
		in := newInputs(seed, 200)
		in.specStream(2)
		return in.hash(nil)
	}
	if specs(1) != specs(1) || specs(1) == specs(2) {
		t.Error("the Spec stream is not a function of the seed alone")
	}
}

// unscreenedPlan is the plan profile without its screen, which solves one LP
// per candidate — seconds under the race detector, and -smoke's to exercise.
func unscreenedPlan() *profile {
	pf := planProfile
	pf.screen = nil
	return &pf
}

func TestPlacementsFollowTheirProfile(t *testing.T) {
	const ops = 8
	for name, pf := range map[string]*profile{"quick": &quickProfile, "paper": &paperProfile, "plan": unscreenedPlan()} {
		w, err := setupInProcess(3, pf, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range w.in.Ops {
			p := op[0]
			want := pf.pattern[(i/deployments)%len(pf.pattern)]
			sg, err := omnc.SelectForwarders(w.net(i), p.Src, p.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if p.Net != i%deployments || !want.has(pf.size(sg)) || p.Hops < minHops || p.Hops > maxHops {
				t.Errorf("%s operation %d: %+v outside deployment %d, band %v or %d-%d hops", name, i, p, i%deployments, want, minHops, maxHops)
			}
			if pf.replans && (len(p.Down) != 3 || p.Links > planLinkCap) {
				t.Errorf("plan operation %d: %+v lacks three removable forwarders or exceeds the link cap", i, p)
			}
		}
	}
	w, err := setupInProcess(3, &multiProfile, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range w.in.Ops {
		nodes := map[int]bool{}
		for _, p := range op {
			sg, err := omnc.SelectForwarders(w.net(i), p.Src, p.Dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sg.Nodes {
				nodes[v] = true
			}
		}
		if len(op) != 4 || !multiProfile.union.has(len(nodes)) {
			t.Errorf("multi operation %d: %d sessions covering %d nodes, want 4 covering %v", i, len(op), len(nodes), multiProfile.union)
		}
	}
}

func TestSpecStream(t *testing.T) {
	const ops, clients = 400, 2
	in := newInputs(5, ops)
	in.specStream(clients)
	// The window, the reference quarter and the warm-up Spec.
	if want := referenceBase(ops, clients) + referenceOps(ops) + 1; len(in.Specs) != want {
		t.Fatalf("%d Specs, want %d", len(in.Specs), want)
	}
	seen := map[string]int{}
	resubmits := 0
	for i, spec := range in.Specs {
		j := in.Resubmit[i]
		if j < 0 {
			if first, dup := seen[spec]; dup {
				t.Errorf("fresh Spec %d repeats Spec %d", i, first)
			}
			seen[spec] = i
			continue
		}
		resubmits++
		if i >= ops {
			t.Errorf("reference Spec %d is a resubmission", i)
		}
		// A resubmission replays a fresh Spec this client sent earlier.
		if j >= i || j%clients != i%clients || in.Resubmit[j] >= 0 || in.Specs[j] != spec {
			t.Errorf("operation %d resubmits %d: not an earlier fresh Spec of the same client", i, j)
		}
	}
	if share := float64(resubmits) / ops; share < 0.18 || share > 0.32 {
		t.Errorf("resubmitted share %.2f, want about a quarter", share)
	}
}
