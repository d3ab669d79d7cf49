package protocol

import (
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// diamond is the two-relay topology of Sec. 3.2 (see core tests).
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

func fastConfig(seed int64) Config {
	return Config{
		Coding:        coding.Params{GenerationSize: 8, BlockSize: 16},
		AirPacketSize: 8 + 1024, // air-time fidelity of the paper's packets
		Capacity:      2e4,
		Duration:      120,
		Seed:          seed,
	}
}

func TestOMNCSessionDecodesOnDiamond(t *testing.T) {
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "omnc" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if st.GenerationsDecoded == 0 {
		t.Fatal("no generation decoded in 120 s")
	}
	if st.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	if st.Gamma <= 0 || st.RateIterations <= 0 {
		t.Fatalf("optimizer metadata missing: gamma=%v iters=%d", st.Gamma, st.RateIterations)
	}
	if st.SelectedNodes != 4 {
		t.Fatalf("selected = %d", st.SelectedNodes)
	}
	// Throughput cannot exceed the LP bound (the paper observes emulated
	// throughput below the optimized value, Sec. 5). Allow a small margin
	// for the estimate itself.
	sg, _ := core.SelectNodes(diamond(t), 0, 3)
	lpRes, _ := core.SolveLP(sg, 2e4)
	if st.Throughput > 1.1*lpRes.Gamma {
		t.Fatalf("emulated throughput %v exceeds LP optimum %v", st.Throughput, lpRes.Gamma)
	}
}

func TestOMNCEmulatedBelowOptimized(t *testing.T) {
	// Sec. 5: "the actual emulated throughput of OMNC tends to be lower
	// than the optimized throughput computed by the sUnicast framework".
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput > st.Gamma*1.05 {
		t.Fatalf("emulated %v should not exceed optimized %v", st.Throughput, st.Gamma)
	}
}

func TestMaxGenerationsStopsEarly(t *testing.T) {
	cfg := fastConfig(3)
	cfg.MaxGenerations = 2
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.GenerationsDecoded != 2 {
		t.Fatalf("decoded %d generations, want 2", st.GenerationsDecoded)
	}
	if st.Duration >= cfg.Duration {
		t.Fatalf("session did not stop early: duration %v", st.Duration)
	}
}

func TestCBRLimitsThroughput(t *testing.T) {
	// With a CBR far below link capacity the session becomes
	// source-limited: throughput approaches the CBR rate, not the optimum.
	cfg := fastConfig(4)
	cfg.CBRRate = 1000
	cfg.Duration = 300
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput > cfg.CBRRate*1.05 {
		t.Fatalf("throughput %v exceeds CBR %v", st.Throughput, cfg.CBRRate)
	}
	if st.Throughput < cfg.CBRRate*0.5 {
		t.Fatalf("throughput %v far below CBR %v on an easy topology", st.Throughput, cfg.CBRRate)
	}
}

func TestQueueSamplingInSession(t *testing.T) {
	cfg := fastConfig(5)
	cfg.QueueSampleInterval = 0.05
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.QueuePerNode) != 4 {
		t.Fatalf("queue stats for %d nodes", len(st.QueuePerNode))
	}
	// OMNC's matched rates keep broadcast queues small (Fig. 3: < 1 for
	// most sessions).
	if st.MeanQueue > 5 {
		t.Fatalf("OMNC mean queue = %.2f, expected small", st.MeanQueue)
	}
}

func TestUtilityMetricsOnDiamond(t *testing.T) {
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	// OMNC uses all nodes and both paths of the diamond (Sec. 5, Fig. 4).
	if st.NodeUtility < 0.99 {
		t.Fatalf("node utility = %.2f, want 1 on the diamond", st.NodeUtility)
	}
	if st.PathUtility < 0.99 {
		t.Fatalf("path utility = %.2f, want 1 on the diamond", st.PathUtility)
	}
}

func TestInnovativeAccounting(t *testing.T) {
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalReceived == 0 {
		t.Fatal("no packets received")
	}
	if st.InnovativeReceived > st.TotalReceived {
		t.Fatalf("innovative %d > total %d", st.InnovativeReceived, st.TotalReceived)
	}
	if st.InnovativeReceived == 0 {
		t.Fatal("no innovative packets despite decoding")
	}
}

func TestRunErrorsOnBadInput(t *testing.T) {
	nw := diamond(t)
	if _, err := OMNC(core.Options{}).Run(nw, 0, 0, fastConfig(8)); err == nil {
		t.Fatal("src == dst must fail")
	}
	bad := fastConfig(9)
	bad.Coding.GenerationSize = -1
	if _, err := OMNC(core.Options{}).Run(nw, 0, 3, bad); err == nil {
		t.Fatal("invalid coding params must fail")
	}
	small := fastConfig(10)
	small.AirPacketSize = 4 // cannot carry 8 coefficients
	if _, err := OMNC(core.Options{}).Run(nw, 0, 3, small); err == nil {
		t.Fatal("air packet smaller than coefficient vector must fail")
	}
}

func TestPolicySizeValidation(t *testing.T) {
	builder := func(sg *core.Subgraph, cfg Config) (*Policy, error) {
		return &Policy{Name: "bad", Caps: []float64{1}, Credit: []float64{1}}, nil
	}
	if _, err := NewProtocol("bad", builder).Run(diamond(t), 0, 3, fastConfig(11)); err == nil {
		t.Fatal("mis-sized policy must fail")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, fastConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.GenerationsDecoded != b.GenerationsDecoded {
		t.Fatalf("same seed diverged: %v vs %v", a.Throughput, b.Throughput)
	}
}

func TestOMNCOnRandomNetwork(t *testing.T) {
	nw, err := topology.Generate(topology.Config{Nodes: 60, Density: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	for dst := 1; dst < nw.Size() && !ran; dst++ {
		sg, err := core.SelectNodes(nw, 0, dst)
		if err != nil || sg.Size() < 5 {
			continue
		}
		cfg := fastConfig(14)
		cfg.Duration = 200
		st, err := OMNC(core.Options{MaxIterations: 800}).Run(nw, 0, dst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.GenerationsDecoded == 0 {
			t.Fatalf("dst %d: nothing decoded (gamma %v)", dst, st.Gamma)
		}
		ran = true
	}
	if !ran {
		t.Skip("no suitable session on this topology")
	}
}

func TestUncappedRates(t *testing.T) {
	caps := UncappedRates(3)
	for _, c := range caps {
		if !(c > 1e300) {
			t.Fatalf("caps = %v, want +Inf", caps)
		}
	}
}

func TestAckLatencyPositive(t *testing.T) {
	sg, err := core.SelectNodes(diamond(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lat := ackLatency(sg, fastConfig(1).WithDefaults())
	if lat <= 0 {
		t.Fatalf("ack latency = %v", lat)
	}
	// Two lossy hops at 64 bytes over 2e4 B/s: order of ~0.01 s.
	if lat > 0.1 {
		t.Fatalf("ack latency %v implausibly large", lat)
	}
}

func TestSessionTracing(t *testing.T) {
	buf := trace.NewBuffer()
	cfg := fastConfig(30)
	cfg.Duration = 60
	cfg.Trace = buf
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no events traced")
	}
	if buf.Count(trace.EventTx) == 0 || buf.Count(trace.EventRx) == 0 {
		t.Fatal("tx/rx events missing")
	}
	if got := buf.Count(trace.EventDecode); got != st.GenerationsDecoded {
		t.Fatalf("decode events = %d, stats say %d", got, st.GenerationsDecoded)
	}
	// Innovation accounting must match the stats counters.
	if got := int64(buf.Count(trace.EventInnovative)); got != st.InnovativeReceived {
		t.Fatalf("innovative events = %d, stats say %d", got, st.InnovativeReceived)
	}
	// Event times must be within the session and non-decreasing per node is
	// not guaranteed, but global ordering by record time is.
	events := buf.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("events recorded out of order")
		}
	}
	if events[len(events)-1].Time > cfg.Duration {
		t.Fatal("event beyond session duration")
	}
}

func TestGenerationLatenciesReported(t *testing.T) {
	cfg := fastConfig(33)
	cfg.Duration = 120
	st, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.GenerationLatencies) != st.GenerationsDecoded {
		t.Fatalf("latencies = %d, decoded = %d", len(st.GenerationLatencies), st.GenerationsDecoded)
	}
	for i, l := range st.GenerationLatencies {
		if l <= 0 || l > cfg.Duration {
			t.Fatalf("latency[%d] = %v out of range", i, l)
		}
	}
}

// exclusiveRuntime attaches a coded runtime to a private Env over sg, the
// placement Protocol.Run gives every session.
func exclusiveRuntime(t *testing.T, nw *topology.Network, sg *core.Subgraph, pol *Policy, cfg Config) *runtime {
	t.Helper()
	env, err := NewEnv(&subgraphMedium{net: nw, sg: sg}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.exclusive = true
	rt, err := attachRuntime(env, sg, pol, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestExpiredGenerationPacketsDiscarded(t *testing.T) {
	// Packets from an expired generation must not perturb the current one:
	// feed a stale packet straight into a node's Receive and check it is
	// ignored (Sec. 4: "discard packets belonging to the expired
	// generation").
	nw := diamond(t)
	sg, _ := core.SelectNodes(nw, 0, 3)
	cfg := fastConfig(50).WithDefaults()
	pols, err := newOMNCPlanner(core.Options{}, 0, cfg).policies([]*core.Subgraph{sg})
	if err != nil {
		t.Fatal(err)
	}
	rt := exclusiveRuntime(t, nw, sg, pols[0], cfg)
	dst := rt.nodes[sg.Dst]
	stale := &coding.Packet{
		Generation: 99, // not the current generation
		Coeffs:     make([]byte, rt.cfg.Coding.GenerationSize),
		Payload:    make([]byte, rt.cfg.Coding.BlockSize),
	}
	stale.Coeffs[0] = 1
	before := rt.received
	var upstream int
	for local := range sg.Nodes {
		if sg.ETXDist[local] > sg.ETXDist[sg.Dst] {
			upstream = local
			break
		}
	}
	dst.Receive(upstream, stale)
	if rt.received != before {
		t.Fatal("stale-generation packet was counted as received")
	}
	if dst.dec.Rank() != 0 {
		t.Fatal("stale packet reached the decoder")
	}
}

func TestExcludedNodesNeverTransmit(t *testing.T) {
	// A policy that excludes a relay must keep it silent for the whole
	// session even though it could decode and forward.
	nw := diamond(t)
	sg, _ := core.SelectNodes(nw, 0, 3)
	var excludedLocal int
	builder := func(sg *core.Subgraph, cfg Config) (*Policy, error) {
		exclude := make([]bool, sg.Size())
		for local := range sg.Nodes {
			if local != sg.Src && local != sg.Dst {
				exclude[local] = true
				excludedLocal = local
				break
			}
		}
		return &Policy{
			Name:             "test-exclude",
			Caps:             UncappedRates(sg.Size()),
			Credit:           make([]float64, sg.Size()),
			SendWhenNonEmpty: true,
			Exclude:          exclude,
		}, nil
	}
	cfg := fastConfig(51)
	cfg.Duration = 60
	rtCfg := cfg.WithDefaults()
	pol, err := builder(sg, rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := exclusiveRuntime(t, nw, sg, pol, rtCfg)
	rt.Start()
	rt.env.Eng.Run(rtCfg.Duration)
	rt.Finish(rtCfg.Duration)
	if rt.mac.FramesSent(excludedLocal) != 0 {
		t.Fatalf("excluded node %d transmitted %d frames",
			excludedLocal, rt.mac.FramesSent(excludedLocal))
	}
}
