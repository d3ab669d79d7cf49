package experiments

import (
	"errors"
	"testing"

	"omnc/internal/coding"
)

func TestChainNetwork(t *testing.T) {
	nw, err := ChainNetwork(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 4 {
		t.Fatalf("3-hop chain has %d nodes, want 4", nw.Size())
	}
	for i := 0; i < 3; i++ {
		if p := nw.Prob(i, i+1); p != 0.7 {
			t.Fatalf("link %d-%d quality %v, want 0.7", i, i+1, p)
		}
	}
	if p := nw.Prob(0, 2); p != 0 {
		t.Fatalf("chain has a shortcut 0-2 with quality %v", p)
	}
	if _, err := ChainNetwork(0, 0.7); err == nil {
		t.Fatal("zero-hop chain must fail")
	}
	if _, err := ChainNetwork(2, 1.5); err == nil {
		t.Fatal("quality above 1 must fail")
	}
}

func TestRunSchemesSweepValidation(t *testing.T) {
	if _, err := RunSchemesSweep(SchemesConfig{Schemes: []coding.Scheme{coding.Scheme(9)}}); !errors.Is(err, coding.ErrInvalidScheme) {
		t.Fatalf("bad scheme: err = %v, want ErrInvalidScheme", err)
	}
	if _, err := RunSchemesSweep(SchemesConfig{Redundancies: []float64{0.2}}); !errors.Is(err, coding.ErrInvalidRedundancy) {
		t.Fatalf("bad redundancy: err = %v, want ErrInvalidRedundancy", err)
	}
}

// smallSchemesConfig keeps the sweep fast: two chain lengths, one redundancy
// level, two trials.
func smallSchemesConfig(seed int64) SchemesConfig {
	return SchemesConfig{
		Base:         Config{Duration: 60, CBRRate: 1e4, Seed: seed},
		Hops:         []int{1, 3},
		Redundancies: []float64{0},
		Trials:       2,
	}
}

// TestRunSchemesSweepRecodingGain: the headline claim of the strategy layer —
// on a lossy chain of 3 or more hops, in-network recoding (full RLNC) must
// strictly beat source-only Reed-Solomon, whose relays can only repeat stored
// shards.
func TestRunSchemesSweepRecodingGain(t *testing.T) {
	res, err := RunSchemesSweep(smallSchemesConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	rlnc := res.Point(coding.SchemeRLNC, 0, 3)
	rs := res.Point(coding.SchemeRS, 0, 3)
	if rlnc == nil || rs == nil {
		t.Fatal("sweep is missing the 3-hop rateless cells")
	}
	if rlnc.Throughput <= rs.Throughput {
		t.Fatalf("full-recoding RLNC (%v B/s) must strictly beat source-only RS (%v B/s) on the 3-hop chain",
			rlnc.Throughput, rs.Throughput)
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Fatalf("scheme %s hops %d delivered nothing", p.Scheme, p.Hops)
		}
	}
}

// TestRunSchemesSweepWorkersInvariant: like every runner, the sweep is
// bit-identical for any Workers setting.
func TestRunSchemesSweepWorkersInvariant(t *testing.T) {
	cfgSerial := smallSchemesConfig(11)
	cfgSerial.Base.Workers = 1
	a, err := RunSchemesSweep(cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	cfgParallel := smallSchemesConfig(11)
	cfgParallel.Base.Workers = 4
	b, err := RunSchemesSweep(cfgParallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs across worker counts: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSchemesCellCount(t *testing.T) {
	cfg := smallSchemesConfig(1)
	if got, want := cfg.CellCount(), 2*3*1*2; got != want {
		t.Fatalf("CellCount = %d, want %d", got, want)
	}
}
