package core

import (
	"testing"

	"omnc/internal/topology"
)

// twoCorridors builds a 8-node network hosting two unicast sessions whose
// forwarder sets interfere in the middle: S1(0)->r(2,3)->T1(5) and
// S2(1)->r(2,3)->T2(6) share relays 2 and 3.
func twoCorridors(t *testing.T) *topology.Network {
	t.Helper()
	p := make([][]float64, 7)
	for i := range p {
		p[i] = make([]float64, 7)
	}
	set := func(a, b int, q float64) {
		p[a][b] = q
		p[b][a] = q
	}
	set(0, 2, 0.8)
	set(0, 3, 0.6)
	set(1, 2, 0.7)
	set(1, 3, 0.8)
	set(2, 5, 0.7)
	set(3, 5, 0.6)
	set(2, 6, 0.6)
	set(3, 6, 0.8)
	set(2, 3, 0.5) // the shared relays hear each other
	nw, err := topology.NewExplicit(p)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestMultiRateControllerValidation(t *testing.T) {
	if _, err := RateControl(nil, Options{}); err == nil {
		t.Fatal("no sessions must fail")
	}
	if _, err := RateControl([]*Subgraph{{}}, Options{}); err == nil {
		t.Fatal("linkless subgraph must fail")
	}
	sg, err := SelectNodes(twoCorridors(t), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RateControl([]*Subgraph{sg, {}}, Options{}); err == nil {
		t.Fatal("a linkless second session must fail")
	}
}

// TestMultiRateControllerSingleSessionMatchesSolo runs a session jointly
// beside a second one that shares none of its nodes: with no shared
// congestion price the joint solve must leave the first session at its solo
// rate, up to the stopping rule's slack.
func TestMultiRateControllerSingleSessionMatchesSolo(t *testing.T) {
	nw := disjointCorridors(t)
	sg, err := SelectNodes(nw, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	far, err := SelectNodes(nw, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range far.Nodes {
		if id < 7 {
			t.Fatalf("far session reaches node %d of the near corridor", id)
		}
	}
	opts := Options{Capacity: 2e4, MaxIterations: 2000}
	solo, err := rateControl1(sg, opts)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := RateControl([]*Subgraph{sg, far}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.PerSession) != 2 {
		t.Fatalf("sessions = %d", len(joint.PerSession))
	}
	ratio := joint.PerSession[0].Gamma / solo.Gamma
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("single-session multi gamma %v deviates from solo %v",
			joint.PerSession[0].Gamma, solo.Gamma)
	}
}

// disjointCorridors is two unconnected copies of twoCorridors: nodes 0-6 and
// 7-13.
func disjointCorridors(t *testing.T) *topology.Network {
	t.Helper()
	one := twoCorridors(t)
	n := one.Size()
	p := make([][]float64, 2*n)
	for i := range p {
		p[i] = make([]float64, 2*n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			p[a][b] = one.Prob(a, b)
			p[a+n][b+n] = one.Prob(a, b)
		}
	}
	nw, err := topology.NewExplicit(p)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRateControlSharesCapacity(t *testing.T) {
	nw := twoCorridors(t)
	sg1, err := SelectNodes(nw, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sg2, err := SelectNodes(nw, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Capacity: 2e4, MaxIterations: 3000}

	solo1, err := rateControl1(sg1, opts)
	if err != nil {
		t.Fatal(err)
	}
	solo2, err := rateControl1(sg2, opts)
	if err != nil {
		t.Fatal(err)
	}

	joint, err := RateControl([]*Subgraph{sg1, sg2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := joint.PerSession[0].Gamma, joint.PerSession[1].Gamma
	if g1 <= 0 || g2 <= 0 {
		t.Fatalf("joint rates must be positive: %v, %v", g1, g2)
	}
	// Interfering sessions must each get less than they would alone...
	if g1 > solo1.Gamma*1.02 || g2 > solo2.Gamma*1.02 {
		t.Fatalf("joint gammas (%v, %v) exceed solo gammas (%v, %v)",
			g1, g2, solo1.Gamma, solo2.Gamma)
	}
	// ...but proportional fairness (sum of ln gamma) keeps both alive: no
	// session is starved below a quarter of its solo rate on this
	// symmetric-ish topology.
	if g1 < solo1.Gamma/4 || g2 < solo2.Gamma/4 {
		t.Fatalf("a session was starved: joint (%v, %v) vs solo (%v, %v)",
			g1, g2, solo1.Gamma, solo2.Gamma)
	}
}

func TestRateControlAggregateFeasible(t *testing.T) {
	nw := twoCorridors(t)
	sg1, _ := SelectNodes(nw, 0, 5)
	sg2, _ := SelectNodes(nw, 1, 6)
	const capacity = 2e4
	opts := Options{Capacity: capacity, MaxIterations: 3000}
	joint, err := RateControl([]*Subgraph{sg1, sg2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate load at every receiver must respect the shared constraint
	// (4) up to subgradient slack.
	netRate := make(map[int]float64) // network node -> summed broadcast rate
	for si, sg := range []*Subgraph{sg1, sg2} {
		for local, id := range sg.Nodes {
			netRate[id] += joint.PerSession[si].B[local]
		}
	}
	for _, sg := range []*Subgraph{sg1, sg2} {
		for local, id := range sg.Nodes {
			if local == sg.Src {
				continue
			}
			load := netRate[id]
			for _, j := range sg.Neighbors(local) {
				load += netRate[sg.Nodes[j]]
			}
			_ = load
			// Duplicate neighbour contributions across the two subgraphs
			// make this a loose sanity bound rather than an exact check.
			if load > 3*capacity {
				t.Fatalf("node %d aggregate load %v wildly exceeds capacity", id, load)
			}
		}
	}
	if joint.Iterations <= 0 {
		t.Fatal("iterations not reported")
	}
}
