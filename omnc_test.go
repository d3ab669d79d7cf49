package omnc

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// lossyDiamond is the canonical two-relay scenario of the paper's Sec. 3.2.
func lossyDiamond(t *testing.T) *Network {
	t.Helper()
	nw, err := NetworkFromMatrix([][]float64{
		{0, 0.5, 0.5, 0},
		{0.5, 0, 0, 0.5},
		{0.5, 0, 0, 0.5},
		{0, 0.5, 0.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func fastSession(seed int64) SessionConfig {
	return SessionConfig{
		Coding:        CodingParams{GenerationSize: 8, BlockSize: 16},
		AirPacketSize: 8 + 1024,
		Capacity:      2e4,
		Duration:      120,
		Seed:          seed,
	}
}

func TestGenerateNetwork(t *testing.T) {
	nw, err := GenerateNetwork(100, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 100 {
		t.Fatalf("size = %d", nw.Size())
	}
	if _, err := GenerateNetwork(1, 6, 1); err == nil {
		t.Fatal("single node must fail")
	}
}

func TestNetworkFromPositions(t *testing.T) {
	nw, err := NetworkFromPositions([]Point{{X: 0}, {X: 50}}, PHY{})
	if err != nil {
		t.Fatal(err)
	}
	if !nw.InRange(0, 1) {
		t.Fatal("50 m apart within 100 m range must link")
	}
}

func TestDefaultCodingParams(t *testing.T) {
	p := DefaultCodingParams()
	if p.GenerationSize != 40 || p.BlockSize != 1024 {
		t.Fatalf("params = %+v", p)
	}
}

func TestSelectAndOptimize(t *testing.T) {
	nw := lossyDiamond(t)
	sg, err := SelectForwarders(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeRates(sg, RateOptions{Capacity: 2e4})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := SolveOptimalRates(sg, 2e4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma <= 0 || lp.Gamma <= 0 {
		t.Fatalf("gamma: distributed %v, lp %v", res.Gamma, lp.Gamma)
	}
	if ratio := res.Gamma / lp.Gamma; ratio < 0.7 || ratio > 1.2 {
		t.Fatalf("distributed/LP = %v", ratio)
	}
}

func TestCodingFacadeRoundTrip(t *testing.T) {
	params := CodingParams{GenerationSize: 4, BlockSize: 32}
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 4*32)
	rng.Read(data)
	gen, err := NewGeneration(0, params, data)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(gen, rng)
	relay, err := NewRecoder(0, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(0, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := relay.Add(enc.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20 && !dec.Decoded(); i++ {
		if _, err := dec.Add(relay.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Decoded() || !bytes.Equal(dec.Data(), data) {
		t.Fatal("facade round trip failed")
	}
}

func TestRunAllProtocols(t *testing.T) {
	nw := lossyDiamond(t)
	runs := []struct {
		name string
		run  func() (*SessionStats, error)
	}{
		{"omnc", func() (*SessionStats, error) { return Run(nw, 0, 3, OMNC(RateOptions{}), fastSession(1)) }},
		{"omnc-opts", func() (*SessionStats, error) {
			return Run(nw, 0, 3, OMNC(RateOptions{MaxIterations: 500}), fastSession(2))
		}},
		{"more", func() (*SessionStats, error) { return Run(nw, 0, 3, MORE(), fastSession(3)) }},
		{"oldmore", func() (*SessionStats, error) { return Run(nw, 0, 3, OldMORE(), fastSession(4)) }},
		{"etx", func() (*SessionStats, error) { return Run(nw, 0, 3, ETX(), fastSession(5)) }},
	}
	for _, tt := range runs {
		t.Run(tt.name, func(t *testing.T) {
			st, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Throughput <= 0 {
				t.Fatalf("%s delivered nothing", tt.name)
			}
		})
	}
}

// TestDriftPlanFacade: link-quality drift through the facade is a FaultPlan
// with a drift event handed to Run — no dedicated runner.
func TestDriftPlanFacade(t *testing.T) {
	nw := lossyDiamond(t)
	cfg := fastSession(21)
	cfg.Duration = 240
	cfg.Report = true
	cfg.Faults = &FaultPlan{Seed: 4, Events: []FaultEvent{
		{At: 120, Kind: FaultQualityDrift, Jitter: 0.2, Duration: 5},
	}}
	st, err := Run(nw, 0, 3, OMNC(RateOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput <= 0 || st.Report.Faults.Drifts != 1 || st.Report.Faults.Replans != 1 {
		t.Fatalf("drift stats = %+v, faults = %+v", st, st.Report.Faults)
	}
}

func TestMultiUnicastFacade(t *testing.T) {
	nw := lossyDiamond(t)
	sg, err := SelectForwarders(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One session solved jointly is Table 1 exactly, trace included.
	opts := RateOptions{Capacity: 2e4, RecordTrace: true}
	joint, err := OptimizeRatesJointly([]MultiSession{{Subgraph: sg}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := OptimizeRates(sg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.PerSession) != 1 || joint.PerSession[0].Gamma <= 0 || len(solo.Trace) != solo.Iterations {
		t.Fatalf("joint = %+v, solo trace %d of %d iterations", joint, len(solo.Trace), solo.Iterations)
	}
	if !reflect.DeepEqual(joint.PerSession[0], solo) {
		t.Fatalf("joint solve of one session differs from OptimizeRates:\n joint %+v\n  solo %+v", joint.PerSession[0], solo)
	}
	cs, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 3}}, OMNC(RateOptions{}), fastSession(22))
	if err != nil {
		t.Fatal(err)
	}
	if cs.AggregateThroughput <= 0 {
		t.Fatal("multi facade delivered nothing")
	}
	if st := cs.PerSession[0]; st.RateIterations <= 0 || st.Gamma <= 0 {
		t.Fatalf("RunMulti OMNC reports no optimizer metadata: gamma %v, %d iterations", st.Gamma, st.RateIterations)
	}
}

func TestRunMultiFacade(t *testing.T) {
	nw := lossyDiamond(t)
	for _, proto := range []Protocol{OMNC(RateOptions{}), MORE(), OldMORE(), ETX()} {
		cs, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 3}}, proto, fastSession(23))
		if err != nil {
			t.Fatalf("%s: %v", proto.Name(), err)
		}
		if cs.AggregateThroughput <= 0 {
			t.Fatalf("%s delivered nothing", proto.Name())
		}
		if cs.JainFairness != 1 {
			t.Fatalf("%s: Jain index of one session = %v", proto.Name(), cs.JainFairness)
		}
	}
	if _, err := RunMulti(nw, []Endpoints{{Src: 2, Dst: 2}}, OMNC(RateOptions{}), fastSession(23)); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("degenerate session: err = %v, want ErrInvalidSession", err)
	}
}

func TestTraceFacade(t *testing.T) {
	nw := lossyDiamond(t)
	buf := NewTraceBuffer()
	cfg := fastSession(31)
	cfg.Duration = 60
	cfg.Trace = buf
	if _, err := Run(nw, 0, 3, OMNC(RateOptions{}), cfg); err != nil {
		t.Fatal(err)
	}
	if buf.Count(TraceTx) == 0 || buf.Count(TraceDecode) == 0 {
		t.Fatal("trace facade recorded nothing useful")
	}
}
