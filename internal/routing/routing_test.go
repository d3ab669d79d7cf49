package routing

import (
	"math"
	"sort"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/protocol"
	"omnc/internal/topology"
)

func diamond(t *testing.T) *topology.Network {
	t.Helper()
	nw, err := topology.NewExplicit([][]float64{
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

func fastConfig(seed int64) protocol.Config {
	return protocol.Config{
		Coding:        coding.Params{GenerationSize: 8, BlockSize: 16},
		AirPacketSize: 8 + 1024,
		Capacity:      2e4,
		Duration:      120,
		Seed:          seed,
	}
}

func TestComputeMOREPlanDiamond(t *testing.T) {
	sg, err := core.SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ComputeMOREPlan(sg)
	if err != nil {
		t.Fatal(err)
	}
	// Source must transmit until either relay hears:
	// z_src = 1 / (1 - (1-0.8)(1-0.6)) = 1/0.92.
	if got, want := plan.Z[sg.Src], 1/0.92; math.Abs(got-want) > 1e-9 {
		t.Fatalf("z_src = %v, want %v", got, want)
	}
	// Both relays carry load; the destination transmits nothing.
	if plan.Z[sg.Dst] != 0 {
		t.Fatalf("z_dst = %v", plan.Z[sg.Dst])
	}
	for i := 0; i < sg.Size(); i++ {
		if i == sg.Src || i == sg.Dst {
			continue
		}
		if plan.Z[i] <= 0 {
			t.Fatalf("relay %d has zero transmission count", i)
		}
		if plan.Credit[i] <= 0 {
			t.Fatalf("relay %d has zero credit", i)
		}
	}
}

func TestMOREPlanLoadSplitsByProximity(t *testing.T) {
	// The closest relay to the destination absorbs the charge when both
	// hear: relay v (ETX 1/0.9) is closer than u (1/0.7), so v's load
	// includes the "both heard" mass.
	sg, _ := core.SelectNodes(diamond(t), 0, 3)
	plan, _ := ComputeMOREPlan(sg)
	var u, v int
	for i, id := range sg.Nodes {
		switch id {
		case 1:
			u = i
		case 2:
			v = i
		}
	}
	zSrc := 1 / 0.92
	// v hears: p=0.6 (v is closest downstream of src).
	wantLv := zSrc * 0.6
	// u hears and v does not: 0.8 * 0.4.
	wantLu := zSrc * 0.8 * 0.4
	gotLu := plan.Z[u] * (1 - (1 - 0.7)) // z_u = L_u / p_ut
	gotLv := plan.Z[v] * (1 - (1 - 0.9))
	if math.Abs(gotLu-wantLu) > 1e-9 {
		t.Fatalf("L_u = %v, want %v", gotLu, wantLu)
	}
	if math.Abs(gotLv-wantLv) > 1e-9 {
		t.Fatalf("L_v = %v, want %v", gotLv, wantLv)
	}
}

func TestMORESessionDecodes(t *testing.T) {
	st, err := protocol.NewProtocol("more", MORE()).Run(diamond(t), 0, 3, fastConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "more" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if st.GenerationsDecoded == 0 {
		t.Fatal("MORE decoded nothing")
	}
}

func TestOldMOREPrunesLossySidePath(t *testing.T) {
	// Side path so weak that 80% of max flow fits on the good path alone:
	// the min-cost plan must silence relay v entirely. The side relay's
	// weak hop is its *first* one, so node selection still keeps it (its
	// remaining ETX to the destination is small) but min-cost routing has
	// no use for it.
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.8, 0.15, 0},
		{0.8, 0, 0, 0.8},
		{0.15, 0, 0, 0.9},
		{0, 0.8, 0.9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.SelectNodes(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ComputeOldMOREPlan(sg)
	if err != nil {
		t.Fatal(err)
	}
	prunedV := false
	for i, id := range sg.Nodes {
		if id == 2 && plan.Exclude[i] {
			prunedV = true
		}
	}
	if !prunedV {
		t.Fatalf("oldMORE must prune the lossy relay: exclude=%v z=%v", plan.Exclude, plan.Z)
	}
}

func TestOldMOREConcentratesOnBestPath(t *testing.T) {
	// On the balanced diamond the min-cost demand fits on one path, so the
	// plan prunes the worse relay — the best-path bias of Sec. 5.
	sg, _ := core.SelectNodes(diamond(t), 0, 3)
	plan, err := ComputeOldMOREPlan(sg)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for i := range plan.Exclude {
		if plan.Exclude[i] {
			pruned++
		}
	}
	if pruned != 1 {
		t.Fatalf("pruned %d nodes on the diamond, want exactly the worse relay", pruned)
	}
}

func TestOldMORESpillsWhenBestPathSaturates(t *testing.T) {
	// Three parallel equal relays: the min-cost demand (35% of max flow)
	// exceeds any single relay's capacity, so at least two relays carry
	// flow.
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.5, 0.5, 0.5, 0},
		{0.5, 0, 0, 0, 0.5},
		{0.5, 0, 0, 0, 0.5},
		{0.5, 0, 0, 0, 0.5},
		{0, 0.5, 0.5, 0.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.SelectNodes(nw, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ComputeOldMOREPlan(sg)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for i := range plan.Exclude {
		if i != sg.Src && i != sg.Dst && !plan.Exclude[i] {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("only %d relays carry flow, want at least 2", active)
	}
}

func TestOldMORESessionDecodes(t *testing.T) {
	st, err := protocol.NewProtocol("oldmore", OldMORE()).Run(diamond(t), 0, 3, fastConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "oldmore" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if st.GenerationsDecoded == 0 {
		t.Fatal("oldMORE decoded nothing")
	}
}

func TestETXChainThroughput(t *testing.T) {
	// Chain S - r - T with p = 0.5 per hop, C = 2e4. S and r share r's
	// neighbourhood, so each gets ~C/2; an attempt succeeds only when data
	// and ACK both survive (p^2 = 0.25), so goodput per hop = C/2 * 0.25.
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.5, 0},
		{0.5, 0, 0.5},
		{0, 0.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(23)
	cfg.Duration = 400
	st, err := protocol.ETX().Run(nw, 0, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Capacity / 8
	if st.Throughput < 0.7*want || st.Throughput > 1.3*want {
		t.Fatalf("ETX chain throughput %v, want ~%v", st.Throughput, want)
	}
	if st.Policy != "etx" {
		t.Fatalf("policy = %q", st.Policy)
	}
}

func TestETXDiamondUsesSinglePath(t *testing.T) {
	st, err := protocol.ETX().Run(diamond(t), 0, 3, fastConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput <= 0 {
		t.Fatal("ETX delivered nothing")
	}
	// Single-path: at most the path's nodes transmit (2 of 3 non-dst), and
	// only one of the two diamond paths carries traffic.
	if st.NodeUtility > 0.67+1e-9 {
		t.Fatalf("node utility %v too high for single-path routing", st.NodeUtility)
	}
	if st.PathUtility > 0.5+1e-9 {
		t.Fatalf("path utility %v too high for single-path routing", st.PathUtility)
	}
}

func TestETXMaxGenerationsStops(t *testing.T) {
	cfg := fastConfig(25)
	cfg.MaxGenerations = 1
	st, err := protocol.ETX().Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.GenerationsDecoded < 1 {
		t.Fatalf("generations = %d", st.GenerationsDecoded)
	}
	if st.Duration >= cfg.Duration {
		t.Fatal("ETX session did not stop early")
	}
}

func TestETXRespectsCBR(t *testing.T) {
	cfg := fastConfig(26)
	cfg.CBRRate = 500
	cfg.Duration = 300
	st, err := protocol.ETX().Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput > cfg.CBRRate*1.05 {
		t.Fatalf("ETX throughput %v exceeds CBR %v", st.Throughput, cfg.CBRRate)
	}
}

// TestProtocolOrdering reproduces the paper's headline shape on one lossy
// session: network coding with rate control beats uncoded best-path
// routing. The diamond here has uniformly weak (p = 0.5) links — the lossy
// regime where "the benefits of OMNC are best demonstrated" (Sec. 5); on
// high-quality links the paper itself reports gains near or below 1.
func TestProtocolOrdering(t *testing.T) {
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.5, 0.5, 0},
		{0.5, 0, 0, 0.5},
		{0.5, 0, 0, 0.5},
		{0, 0.5, 0.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(27)
	cfg.Duration = 400
	cfg.Coding.GenerationSize = 16 // amortize per-generation ramp-up
	cfg.AirPacketSize = 16 + 1024

	etx, err := protocol.ETX().Run(nw, 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	omnc, err := protocol.OMNC(core.Options{}).Run(nw, 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if omnc.Throughput <= etx.Throughput {
		t.Fatalf("OMNC (%v) must beat ETX (%v) on the lossy diamond",
			omnc.Throughput, etx.Throughput)
	}
}

func TestClampCredits(t *testing.T) {
	credit := []float64{0.5, math.Inf(1), 1e9}
	clampCredits(credit)
	if credit[0] != 0.5 {
		t.Fatal("small credit modified")
	}
	if credit[1] != maxCredit || credit[2] != maxCredit {
		t.Fatalf("credits not clamped: %v", credit)
	}
}

// TestPropertyMOREMassConservation: MORE's heuristic transmits each packet
// until some node closer to the destination hears it, so on connected
// subgraphs every unit of source load must eventually be charged to the
// destination: L_dst = 1.
func TestPropertyMOREMassConservation(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 100, Density: 6, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for dst := 1; dst < nw.Size() && checked < 8; dst++ {
		sg, err := core.SelectNodes(nw, 0, dst)
		if err != nil || sg.Size() < 4 {
			continue
		}
		plan, err := ComputeMOREPlan(sg)
		if err != nil {
			continue
		}
		// Recompute the load reaching the destination from the plan.
		loadDst := moreLoadAtDestination(sg, plan)
		if math.Abs(loadDst-1) > 1e-6 {
			t.Fatalf("dst %d: destination load = %v, want 1", dst, loadDst)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no usable sessions")
	}
}

// moreLoadAtDestination replays the charge rule to compute L_dst.
func moreLoadAtDestination(sg *core.Subgraph, plan *MOREPlan) float64 {
	type link = core.Link
	downstream := make([][]link, sg.Size())
	for i := 0; i < sg.Size(); i++ {
		for _, li := range sg.Out(i) {
			downstream[i] = append(downstream[i], sg.Links[li])
		}
		links := downstream[i]
		sort.Slice(links, func(a, b int) bool {
			return sg.ETXDist[links[a].To] < sg.ETXDist[links[b].To]
		})
	}
	load := 0.0
	for i := 0; i < sg.Size(); i++ {
		if i == sg.Dst {
			continue
		}
		closerMiss := 1.0
		for _, l := range downstream[i] {
			if l.To == sg.Dst {
				load += plan.Z[i] * l.Prob * closerMiss
			}
			closerMiss *= 1 - l.Prob
		}
	}
	return load
}
