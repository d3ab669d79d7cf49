package topology

import "testing"

func TestPerturbQualityPreservesStructure(t *testing.T) {
	nw, err := Generate(Config{Nodes: 60, Density: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	p, err := nw.PerturbQuality(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := 0; i < nw.Size(); i++ {
		if len(p.Neighbors(i)) != len(nw.Neighbors(i)) {
			t.Fatal("perturbation must not change the neighbour geometry")
		}
		for _, j := range nw.Neighbors(i) {
			q := p.Prob(i, j)
			if q <= 0 || q > 1 {
				t.Fatalf("perturbed prob(%d,%d) = %v", i, j, q)
			}
			if q != p.Prob(j, i) {
				t.Fatal("perturbation must preserve symmetry")
			}
			if q != nw.Prob(i, j) {
				changed = true
			}
			// Bounded drift: within the jitter envelope (plus clamping).
			if ratio := q / nw.Prob(i, j); ratio < 0.69 || ratio > 1.31 {
				if q != 1 && q != 0.01 { // clamped values may exceed the envelope
					t.Fatalf("drift ratio %v outside +/-30%%", ratio)
				}
			}
		}
	}
	if !changed {
		t.Fatal("perturbation changed nothing")
	}
	// The original is untouched.
	if nw.Prob(0, nwFirstNeighbor(t, nw, 0)) != nw.Prob(0, nwFirstNeighbor(t, nw, 0)) {
		t.Fatal("original mutated")
	}
	if _, err := nw.PerturbQuality(1, 1.5); err == nil {
		t.Fatal("jitter >= 1 must fail")
	}
}

func nwFirstNeighbor(t *testing.T, nw *Network, i int) int {
	t.Helper()
	ns := nw.Neighbors(i)
	if len(ns) == 0 {
		t.Skip("node has no neighbours")
	}
	return ns[0]
}
