package core

import (
	"errors"
	"math"
	"testing"

	"omnc/internal/topology"
)

// diamond builds the two-relay scenario of Sec. 3.2: S reaches relays u and
// v, which are out of range of each other, and both reach T.
//
// Local analysis of the sUnicast LP on this topology (C = 1):
// maximize x_Su + x_Sv subject to x_Su <= min(0.8 b_S, 0.7 b_u),
// x_Sv <= min(0.6 b_S, 0.9 b_v), b_u + b_S <= 1, b_v + b_S <= 1,
// b_u + b_v <= 1; the optimum is gamma* = 49/75 = 0.65333 at b_S = 7/15.
func diamond(t *testing.T) *topology.Network {
	t.Helper()
	nw, err := topology.NewExplicit([][]float64{
		// S     u    v    T
		{0, 0.8, 0.6, 0},
		{0.8, 0, 0, 0.7},
		{0.6, 0, 0, 0.9},
		{0, 0.7, 0.9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSelectNodesDiamond(t *testing.T) {
	sg, err := SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Size() != 4 {
		t.Fatalf("selected %d nodes, want 4", sg.Size())
	}
	if sg.Nodes[sg.Src] != 0 || sg.Nodes[sg.Dst] != 3 {
		t.Fatalf("endpoints mapped to %d,%d", sg.Nodes[sg.Src], sg.Nodes[sg.Dst])
	}
	if len(sg.Links) != 4 {
		t.Fatalf("links = %d, want 4", len(sg.Links))
	}
	// Every link must strictly decrease ETX distance (DAG property).
	for _, l := range sg.Links {
		if sg.ETXDist[l.To] >= sg.ETXDist[l.From] {
			t.Fatalf("link %v does not decrease ETX distance", l)
		}
	}
	if got := sg.PathCount(); got != 2 {
		t.Fatalf("PathCount = %v, want 2", got)
	}
}

func TestSelectNodesErrors(t *testing.T) {
	nw := diamond(t)
	if _, err := SelectNodes(nw, 0, 0); err == nil {
		t.Fatal("src == dst must fail")
	}
	if _, err := SelectNodes(nw, -1, 3); err == nil {
		t.Fatal("out-of-range src must fail")
	}
	if _, err := SelectNodes(nw, 0, 9); err == nil {
		t.Fatal("out-of-range dst must fail")
	}
	// Disconnected destination.
	iso, err := topology.NewExplicit([][]float64{
		{0, 0.9, 0},
		{0.9, 0, 0},
		{0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreach *ErrUnreachable
	if _, err := SelectNodes(iso, 0, 2); !errors.As(err, &unreach) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestSelectNodesPrunesFartherNodes(t *testing.T) {
	// A node farther from the destination than the source must never be
	// selected (Sec. 3.2 node selection).
	nw, err := topology.NewExplicit([][]float64{
		// S     far   mid   T
		{0, 0.9, 0.9, 0},
		{0.9, 0, 0.9, 0}, // "far" has no link toward T
		{0.9, 0.9, 0, 0.9},
		{0, 0, 0.9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := SelectNodes(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sg.Nodes {
		if v == 1 {
			t.Fatal("node 1 (farther than source) must be pruned")
		}
	}
}

func TestSelectNodesOnRandomNetwork(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 80, Density: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for dst := 1; dst < 40 && found < 5; dst++ {
		sg, err := SelectNodes(nw, 0, dst)
		if err != nil {
			continue // disconnected pair: fine on sparse random graphs
		}
		found++
		seen := make(map[int]bool)
		for _, v := range sg.Nodes {
			if seen[v] {
				t.Fatal("duplicate node in subgraph")
			}
			seen[v] = true
		}
		for _, l := range sg.Links {
			if sg.ETXDist[l.To] >= sg.ETXDist[l.From] {
				t.Fatal("non-decreasing link in forwarder DAG")
			}
			if l.Prob <= 0 || l.Prob > 1 {
				t.Fatalf("link probability %v", l.Prob)
			}
		}
		// Neighbour lists must be consistent with links.
		for li, l := range sg.Links {
			ok := false
			for _, j := range sg.Neighbors(l.From) {
				if j == l.To {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("link %d endpoints are not neighbours", li)
			}
		}
	}
	if found == 0 {
		t.Fatal("no reachable session found on the random network")
	}
}

func TestSolveLPDiamondOptimum(t *testing.T) {
	sg, err := SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 1e5
	res, err := SolveLP(sg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := 49.0 / 75.0 * capacity
	if math.Abs(res.Gamma-want) > 1 {
		t.Fatalf("LP gamma = %v, want %v", res.Gamma, want)
	}
	// b_T must be zero; all rates within bounds.
	if res.B[sg.Dst] > 1e-9 {
		t.Fatalf("destination broadcast rate = %v, want 0", res.B[sg.Dst])
	}
	checkFeasible(t, sg, res.B, res.X, res.Gamma, capacity)
}

// checkFeasible asserts constraints (2)-(5) hold for a rate allocation.
func checkFeasible(t *testing.T, sg *Subgraph, b, x []float64, gamma, capacity float64) {
	t.Helper()
	const tol = 1e-6 * 1e5
	for i := 0; i < sg.Size(); i++ {
		// (2) flow conservation.
		net := 0.0
		for _, li := range sg.Out(i) {
			net += x[li]
		}
		for _, li := range sg.In(i) {
			net -= x[li]
		}
		want := 0.0
		switch i {
		case sg.Src:
			want = gamma
		case sg.Dst:
			want = -gamma
		}
		if math.Abs(net-want) > tol {
			t.Fatalf("node %d: net flow %v, want %v", i, net, want)
		}
		// (4) MAC constraint.
		if i != sg.Src {
			load := b[i]
			for _, j := range sg.Neighbors(i) {
				load += b[j]
			}
			if load > capacity+tol {
				t.Fatalf("node %d: MAC load %v exceeds capacity", i, load)
			}
		}
	}
	// (5) broadcast support.
	for li, l := range sg.Links {
		if x[li] > b[l.From]*l.Prob+tol {
			t.Fatalf("link %d: x=%v exceeds b*p=%v", li, x[li], b[l.From]*l.Prob)
		}
	}
	// (3) non-negativity.
	for li, v := range x {
		if v < -tol {
			t.Fatalf("x[%d] = %v negative", li, v)
		}
	}
	for i, v := range b {
		if v < -tol {
			t.Fatalf("b[%d] = %v negative", i, v)
		}
	}
}

func TestSolveLPValidation(t *testing.T) {
	sg, _ := SelectNodes(diamond(t), 0, 3)
	if _, err := SolveLP(sg, 0); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := SolveLP(&Subgraph{Nodes: []int{0, 1}}, 1); err == nil {
		t.Fatal("linkless subgraph must fail")
	}
}

func TestRateControllerConvergesOnDiamond(t *testing.T) {
	sg, err := SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 1e5
	res, err := rateControl1(sg, Options{Capacity: capacity, MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := SolveLP(sg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	// The distributed algorithm approaches the LP optimum (Sec. 3.3 proves
	// convergence; finite iterations leave a gap).
	if res.Gamma < 0.75*lpRes.Gamma || res.Gamma > 1.1*lpRes.Gamma {
		t.Fatalf("distributed gamma %v too far from LP optimum %v", res.Gamma, lpRes.Gamma)
	}
	if res.B[sg.Dst] > 1e-6 {
		t.Fatalf("destination rate %v, want 0", res.B[sg.Dst])
	}
	for i, v := range res.B {
		if v < 0 || v > capacity {
			t.Fatalf("b[%d] = %v outside [0, C]", i, v)
		}
	}
}

func TestRateControllerTrace(t *testing.T) {
	sg, _ := SelectNodes(diamond(t), 0, 3)
	res, err := rateControl1(sg, Options{Capacity: 1e5, MaxIterations: 50, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.Trace), res.Iterations)
	}
	for i, snap := range res.Trace {
		if snap.Iteration != i+1 {
			t.Fatalf("trace[%d].Iteration = %d", i, snap.Iteration)
		}
		if len(snap.B) != sg.Size() {
			t.Fatalf("trace snapshot has %d rates", len(snap.B))
		}
	}
}

func TestRateControllerNoTraceByDefault(t *testing.T) {
	sg, _ := SelectNodes(diamond(t), 0, 3)
	res, err := rateControl1(sg, Options{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded without RecordTrace")
	}
}

// rateControl1 runs the rate controller on one session: Table 1 itself.
func rateControl1(sg *Subgraph, opts Options) (*Result, error) {
	joint, err := RateControl([]*Subgraph{sg}, opts)
	if err != nil {
		return nil, err
	}
	return joint.PerSession[0], nil
}

func TestRateControllerEmptySubgraph(t *testing.T) {
	for _, sg := range []*Subgraph{nil, {}, {Nodes: []int{0, 1}, Dst: 1}} {
		if _, err := rateControl1(sg, Options{}); err == nil {
			t.Fatalf("linkless subgraph %+v must fail", sg)
		}
	}
}

func TestRateControllerMatchesLPOnRandomSessions(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 60, Density: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 1e5
	checked := 0
	for dst := 1; dst < nw.Size() && checked < 3; dst++ {
		sg, err := SelectNodes(nw, 0, dst)
		if err != nil || sg.Size() < 4 {
			continue
		}
		lpRes, err := SolveLP(sg, capacity)
		if err != nil || lpRes.Gamma < 1 {
			continue
		}
		res, err := rateControl1(sg, Options{Capacity: capacity, MaxIterations: 3000})
		if err != nil {
			t.Fatal(err)
		}
		ratio := res.Gamma / lpRes.Gamma
		if ratio < 0.6 || ratio > 1.15 {
			t.Fatalf("dst %d: distributed/LP gamma ratio = %.3f (%v vs %v)",
				dst, ratio, res.Gamma, lpRes.Gamma)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no suitable session found")
	}
}

func TestRescaleFeasible(t *testing.T) {
	sg, _ := SelectNodes(diamond(t), 0, 3)
	const capacity = 1e5
	// Deliberately infeasible: everyone at capacity.
	b := make([]float64, sg.Size())
	for i := range b {
		b[i] = capacity
	}
	b[sg.Dst] = 0
	scaled, factor := RescaleFeasible(sg, b, capacity)
	if factor >= 1 {
		t.Fatalf("factor = %v, want < 1 for infeasible input", factor)
	}
	for i := 0; i < sg.Size(); i++ {
		if i == sg.Src {
			continue
		}
		load := scaled[i]
		for _, j := range sg.Neighbors(i) {
			load += scaled[j]
		}
		if load > capacity*(1+1e-9) {
			t.Fatalf("node %d still violates MAC after rescale: %v", i, load)
		}
	}
	// A strictly interior vector is scaled *up* to the constraint
	// boundary: finite subgradient runs undershoot the optimum, and the
	// optimum saturates the bottleneck receiver.
	small := make([]float64, sg.Size())
	small[sg.Src] = capacity / 10
	up, factor := RescaleFeasible(sg, small, capacity)
	if factor <= 1 {
		t.Fatalf("interior input should scale up, got factor %v", factor)
	}
	for i, v := range up {
		if v > capacity+1e-9 {
			t.Fatalf("b[%d] = %v exceeds channel capacity", i, v)
		}
	}
	// An all-zero vector is returned unchanged.
	zero := make([]float64, sg.Size())
	_, factor = RescaleFeasible(sg, zero, capacity)
	if factor != 1 {
		t.Fatalf("zero vector rescaled by %v", factor)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Capacity != 1e5 || o.StepA != 1 || o.StepB != 0.5 || o.StepC != 0.05 {
		t.Fatalf("step defaults wrong: %+v", o)
	}
	if o.MaxIterations != 400 || o.Window != 10 || o.Sigma != 0.5 {
		t.Fatalf("loop defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o = Options{Capacity: 5, StepA: 2, MaxIterations: 7}.withDefaults()
	if o.Capacity != 5 || o.StepA != 2 || o.MaxIterations != 7 {
		t.Fatalf("explicit options overridden: %+v", o)
	}
}

func TestSolveLPDualsIdentifyBottleneck(t *testing.T) {
	// On the diamond the binding MAC constraint at the optimum is the
	// relay u's receiver constraint (b_u + b_S = C at b_S = 7/15): its
	// congestion price must be positive; strong duality ties prices to the
	// optimum.
	sg, err := SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 1e5
	res, err := SolveLP(sg, capacity)
	if err != nil {
		t.Fatal(err)
	}
	positive := 0
	for i, beta := range res.Beta {
		if beta < -1e-9 {
			t.Fatalf("negative congestion price at node %d: %v", i, beta)
		}
		if beta > 1e-9 {
			positive++
			// Complementary slackness: a priced receiver is saturated.
			load := res.B[i]
			for _, j := range sg.Neighbors(i) {
				load += res.B[j]
			}
			if load < capacity*(1-1e-6) {
				t.Fatalf("node %d priced (%v) but not saturated (%v)", i, beta, load)
			}
		}
	}
	if positive == 0 {
		t.Fatal("no congested receiver priced at the optimum")
	}
	if res.Beta[sg.Src] != 0 {
		t.Fatal("the source has no receiver constraint to price")
	}
	// Lambda prices: every flow-carrying link's support constraint is
	// tight, so lambda may be positive there; unused links are free.
	for li, l := range sg.Links {
		if res.Lambda[li] < -1e-9 {
			t.Fatalf("negative link price on %v", l)
		}
	}
}

// TestPropertyRateControlPipelineInvariants checks, across random sessions,
// the two invariants the protocol relies on: SupportingRates makes every
// link's constraint (5) hold against the recovered flows, and
// RescaleFeasible then restores the MAC constraint (4) at every receiver.
func TestPropertyRateControlPipelineInvariants(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 120, Density: 6, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 2e4
	checked := 0
	for dst := 1; dst < nw.Size() && checked < 6; dst++ {
		sg, err := SelectNodes(nw, 0, dst)
		if err != nil || sg.Size() < 4 {
			continue
		}
		res, err := rateControl1(sg, Options{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		supported := res.SupportingRates(sg)
		for li, l := range sg.Links {
			if res.X[li] > supported[l.From]*l.Prob*(1+1e-9) {
				t.Fatalf("dst %d link %d: x=%v > b*p=%v after SupportingRates",
					dst, li, res.X[li], supported[l.From]*l.Prob)
			}
			if supported[l.From] < res.B[l.From] {
				t.Fatal("SupportingRates must never lower a rate")
			}
		}
		caps, scale := RescaleFeasible(sg, supported, capacity)
		if scale <= 0 {
			t.Fatalf("dst %d: non-positive rescale factor %v", dst, scale)
		}
		for i := 0; i < sg.Size(); i++ {
			if i == sg.Src {
				continue
			}
			load := caps[i]
			for _, j := range sg.Neighbors(i) {
				load += caps[j]
			}
			if load > capacity*(1+1e-9) {
				t.Fatalf("dst %d node %d: load %v exceeds capacity after rescale", dst, i, load)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no usable sessions")
	}
}

// TestMaskedCutsCrashedNodesAndScalesLinks: the fault view of a selection. A
// crashed node keeps its index but loses every link and its place in its
// neighbours' interference sets; a link at factor 0 is dropped (its radios
// still interfere); any other factor scales the link's probability; and the
// receiver is never mutated.
func TestMaskedCutsCrashedNodesAndScalesLinks(t *testing.T) {
	sg, err := SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := make(map[int]int)
	for i, nid := range sg.Nodes {
		local[nid] = i
	}
	u, v := local[1], local[2]
	prob := func(g *Subgraph, from, to int) float64 {
		for _, li := range g.Out(from) {
			if g.Links[li].To == to {
				return g.Links[li].Prob
			}
		}
		return 0
	}

	down := make([]bool, sg.Size())
	down[u] = true
	cut := sg.Masked(down, nil)
	if cut.Size() != sg.Size() {
		t.Fatal("node indices must stay stable")
	}
	if len(cut.Out(u))+len(cut.In(u))+len(cut.Neighbors(u)) != 0 {
		t.Fatal("crashed node still has links or neighbours")
	}
	if prob(cut, sg.Src, u) != 0 || prob(cut, u, sg.Dst) != 0 {
		t.Fatal("links of the crashed node survived")
	}
	if prob(cut, sg.Src, v) != 0.6 || prob(cut, v, sg.Dst) != 0.9 {
		t.Fatal("surviving links removed or changed")
	}
	for _, n := range cut.Neighbors(sg.Src) {
		if n == u {
			t.Fatal("crashed node still contends in its neighbour's range")
		}
	}

	scaled := sg.Masked(nil, func(i, j int) float64 {
		switch {
		case i == sg.Src && j == u:
			return 0 // flapped
		case i == sg.Src && j == v:
			return 0.5 // drifted down
		case i == v && j == sg.Dst:
			return 2 // drifted up, past certainty: clamped
		}
		return 1
	})
	if prob(scaled, sg.Src, u) != 0 || len(scaled.Neighbors(sg.Src)) != len(sg.Neighbors(sg.Src)) {
		t.Fatal("a factor-0 link must vanish from Links and stay in the interference sets")
	}
	if got := prob(scaled, sg.Src, v); got != 0.3 {
		t.Fatalf("S->v scaled to %v, want 0.3", got)
	}
	if got := prob(scaled, v, sg.Dst); got != 1 {
		t.Fatalf("v->T scaled to %v, want the clamp at 1", got)
	}
	if got := prob(scaled, u, sg.Dst); got != 0.7 {
		t.Fatalf("u->T at factor 1 moved to %v", got)
	}
	if prob(sg, sg.Src, u) != 0.8 || prob(sg, sg.Src, v) != 0.6 {
		t.Fatal("Masked mutated its receiver")
	}
}
