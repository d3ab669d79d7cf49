package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/metrics"
)

// tinyConfig keeps comparison tests fast on one CPU.
func tinyConfig(seed int64) Config {
	return Config{
		Nodes:               120,
		Density:             6,
		Sessions:            4,
		MinHops:             4,
		MaxHops:             10,
		Duration:            120,
		Capacity:            2e4,
		CBRRate:             1e4,
		Coding:              coding.Params{GenerationSize: 16, BlockSize: 4},
		AirPacketSize:       16 + 1024,
		QueueSampleInterval: 0.5,
		Seed:                seed,
	}
}

func TestRunComparisonProducesAllSeries(t *testing.T) {
	cfg := tinyConfig(3)
	cfg.SolveLPGap = true
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sessions) != cfg.Sessions {
		t.Fatalf("ran %d sessions, want %d", len(c.Sessions), cfg.Sessions)
	}
	for i, s := range c.Sessions {
		if s.Hops < cfg.MinHops || s.Hops > cfg.MaxHops {
			t.Fatalf("session %d hops = %d outside [%d,%d]", i, s.Hops, cfg.MinHops, cfg.MaxHops)
		}
		for _, name := range []string{ProtoOMNC, ProtoMORE, ProtoOldMORE, ProtoETX} {
			if _, ok := s.ByProtocol[name]; !ok {
				t.Fatalf("session %d missing protocol %s", i, name)
			}
		}
		if s.LPGamma <= 0 {
			t.Fatalf("session %d LP gamma = %v", i, s.LPGamma)
		}
	}

	gains := c.GainCDFs()
	if len(gains) != 3 {
		t.Fatalf("gain curves = %d, want 3", len(gains))
	}
	for name, cdf := range gains {
		if cdf.Len() == 0 {
			t.Fatalf("%s gain CDF empty", name)
		}
	}
	queues := c.QueueCDFs()
	if len(queues) != 4 {
		t.Fatalf("queue curves = %d, want 4", len(queues))
	}
	if len(c.NodeUtilityCDFs()) != 3 || len(c.PathUtilityCDFs()) != 3 {
		t.Fatal("utility curves missing")
	}
	if c.MeanRateIterations() <= 0 {
		t.Fatal("mean rate iterations must be positive")
	}
	gap := c.LPGapSummary()
	if gap.N == 0 {
		t.Fatal("LP gap summary empty")
	}
	// Sec. 5: emulated throughput stays below the optimized value.
	if gap.Mean > 1.0 {
		t.Fatalf("emulated/optimized ratio %v > 1", gap.Mean)
	}
}

func TestRunComparisonSubsetOfProtocols(t *testing.T) {
	cfg := tinyConfig(5)
	cfg.Sessions = 2
	cfg.Protocols = []string{ProtoETX}
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.GainCDFs()) != 0 {
		t.Fatal("gain CDFs need coded protocols")
	}
	if len(c.QueueCDFs()) != 1 {
		t.Fatal("queue CDFs should cover ETX only")
	}
	if c.MeanRateIterations() != 0 {
		t.Fatal("no OMNC sessions -> no iterations")
	}
}

func TestRunComparisonUnknownProtocol(t *testing.T) {
	cfg := tinyConfig(6)
	cfg.Sessions = 1
	cfg.Protocols = []string{"bogus"}
	if _, err := RunComparison(cfg); err == nil {
		t.Fatal("unknown protocol must fail")
	}
}

func TestRunComparisonImpossibleHops(t *testing.T) {
	cfg := tinyConfig(7)
	cfg.Nodes = 30
	cfg.MinHops = 25
	cfg.MaxHops = 26
	cfg.Sessions = 1
	if _, err := RunComparison(cfg); err == nil {
		t.Fatal("unsatisfiable hop constraint must fail")
	}
}

func TestRunComparisonDeterministic(t *testing.T) {
	cfg := tinyConfig(8)
	cfg.Sessions = 2
	cfg.Protocols = []string{ProtoOMNC}
	a, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sessions {
		sa, sb := a.Sessions[i], b.Sessions[i]
		if sa.Src != sb.Src || sa.Dst != sb.Dst {
			t.Fatal("session placement not deterministic")
		}
		if sa.ByProtocol[ProtoOMNC].Throughput != sb.ByProtocol[ProtoOMNC].Throughput {
			t.Fatal("throughput not deterministic")
		}
	}
}

// TestRunComparisonParallelMatchesSerial is the determinism contract of the
// parallel runner: for the same seed, a RunComparison fanned out over eight
// workers must be indistinguishable — session by session, CDF by CDF — from
// the strictly serial run. The configs derive from QuickConfig (the paper's
// topology and air frames) with the session count and emulated time scaled
// down so the three-seed sweep stays test-suite-sized.
func TestRunComparisonParallelMatchesSerial(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := QuickConfig(seed)
		cfg.Sessions = 4
		cfg.Duration = 60
		cfg.SolveLPGap = true

		serialCfg := cfg
		serialCfg.Workers = 1
		serial, err := RunComparison(serialCfg)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		parCfg := cfg
		parCfg.Workers = 8
		par, err := RunComparison(parCfg)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}

		if len(serial.Sessions) != len(par.Sessions) {
			t.Fatalf("seed %d: %d serial vs %d parallel sessions",
				seed, len(serial.Sessions), len(par.Sessions))
		}
		for i := range serial.Sessions {
			if !reflect.DeepEqual(serial.Sessions[i], par.Sessions[i]) {
				t.Fatalf("seed %d session %d diverges:\nserial:   %+v\nparallel: %+v",
					seed, i, serial.Sessions[i], par.Sessions[i])
			}
		}
		for name, cmp := range map[string][2]interface{}{
			"gain CDFs":         {serial.GainCDFs(), par.GainCDFs()},
			"queue CDFs":        {serial.QueueCDFs(), par.QueueCDFs()},
			"node utility":      {serial.NodeUtilityCDFs(), par.NodeUtilityCDFs()},
			"path utility":      {serial.PathUtilityCDFs(), par.PathUtilityCDFs()},
			"rate iterations":   {serial.RateIterationsSummary(), par.RateIterationsSummary()},
			"LP gap":            {serial.LPGapSummary(), par.LPGapSummary()},
			"network (pointer)": {serial.Network.MeanLinkQuality(), par.Network.MeanLinkQuality()},
		} {
			if !reflect.DeepEqual(cmp[0], cmp[1]) {
				t.Fatalf("seed %d: %s diverge between serial and parallel", seed, name)
			}
		}
	}
}

// TestRunComparisonDefaultWorkers checks the zero value fans out (and still
// succeeds) — Workers: 0 must behave like "all cores", not like zero
// workers.
func TestRunComparisonDefaultWorkers(t *testing.T) {
	cfg := tinyConfig(11)
	cfg.Sessions = 2
	cfg.Protocols = []string{ProtoETX}
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(c.Sessions))
	}
}

// TestRunComparisonProgress verifies every completed trial ticks the shared
// progress counter exactly once.
func TestRunComparisonProgress(t *testing.T) {
	cfg := tinyConfig(12)
	cfg.Sessions = 3
	cfg.Protocols = []string{ProtoETX}
	cfg.Workers = 4
	cfg.Progress = metrics.NewProgress(cfg.Sessions)
	if _, err := RunComparison(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Progress.Done() != cfg.Sessions {
		t.Fatalf("progress = %s, want %d", cfg.Progress, cfg.Sessions)
	}
	if cfg.Progress.Fraction() != 1 {
		t.Fatalf("fraction = %v", cfg.Progress.Fraction())
	}
}

// TestRunComparisonProgressNeverOvercounts watches the counter while the
// parallel runner is live: Done must never pass Total mid-sweep (Fraction no
// longer clamps, so an over-count would surface as a fraction above 1) and
// must land exactly on Total at the end.
func TestRunComparisonProgressNeverOvercounts(t *testing.T) {
	cfg := tinyConfig(13)
	cfg.Sessions = 4
	cfg.Protocols = []string{ProtoETX}
	cfg.Workers = 4
	p := metrics.NewProgress(cfg.Sessions)
	cfg.Progress = p
	stop := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				watched <- nil
				return
			default:
				if p.Done() > p.Total() {
					watched <- fmt.Errorf("mid-sweep progress %s over-counted (fraction %v)", p, p.Fraction())
					return
				}
			}
		}
	}()
	_, err := RunComparison(cfg)
	close(stop)
	if werr := <-watched; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.Done() != p.Total() || p.Fraction() != 1 {
		t.Fatalf("final progress = %s (fraction %v), want exactly total", p, p.Fraction())
	}
}

// TestTrialSeedsDecorrelated pins the property the SplitMix64 derivation was
// introduced for: RNGs seeded from distinct trial indices open with distinct
// first draws (the old additive seed+7919*idx offsets fed math/rand source
// states that were nearly collinear across trials).
func TestTrialSeedsDecorrelated(t *testing.T) {
	const trials = 2048
	seeds := make(map[int64]int, trials)
	firsts := make(map[int64]int, trials)
	for i := 0; i < trials; i++ {
		s := TrialSeed(42, i)
		if prev, ok := seeds[s]; ok {
			t.Fatalf("trials %d and %d derive the same seed %d", prev, i, s)
		}
		seeds[s] = i
		first := rand.New(rand.NewSource(s)).Int63()
		if prev, ok := firsts[first]; ok {
			t.Fatalf("trials %d and %d share first draw %d", prev, i, first)
		}
		firsts[first] = i
	}
	if TrialSeed(42, 0) == TrialSeed(43, 0) {
		t.Fatal("different experiment seeds must derive different trial seeds")
	}
}

func TestHighQualityVariantRaisesQuality(t *testing.T) {
	cfg := tinyConfig(9)
	cfg.Sessions = 1
	cfg.MeanQuality = 0.91
	cfg.Protocols = []string{ProtoETX}
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q := c.Network.MeanLinkQuality(); q < 0.85 {
		t.Fatalf("network quality = %.3f, want ~0.91", q)
	}
}

func TestQuickAndPaperConfigs(t *testing.T) {
	q := QuickConfig(1)
	p := PaperConfig(1)
	if q.Nodes != p.Nodes || q.Density != p.Density {
		t.Fatal("quick config must keep the paper's topology")
	}
	if q.Sessions >= p.Sessions || q.Duration >= p.Duration {
		t.Fatal("quick config must be smaller than paper scale")
	}
	if p.Sessions != 300 || p.Duration != 800 || p.Coding.GenerationSize != 40 || p.Coding.BlockSize != 1024 {
		t.Fatalf("paper config drifted: %+v", p)
	}
	if q.AirPacketSize != 40+1024 {
		t.Fatal("quick config must keep full-fidelity air packets")
	}
}

func TestFig1Convergence(t *testing.T) {
	res, err := Fig1Convergence(Fig1Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("rate control did not converge in %d iterations", res.Iterations)
	}
	if len(res.Nodes) == 0 || len(res.Series) != len(res.Nodes) {
		t.Fatalf("series/nodes mismatch: %d vs %d", len(res.Series), len(res.Nodes))
	}
	for i, series := range res.Series {
		if len(series) != res.Iterations {
			t.Fatalf("node %d series length %d != iterations %d", i, len(series), res.Iterations)
		}
		for t2, v := range series {
			if v < 0 || v > 1e5 {
				t.Fatalf("node %d rate out of range at iteration %d: %v", i, t2, v)
			}
		}
		// Convergence: the last few recovered rates barely move.
		last := series[len(series)-1]
		prev := series[len(series)-5]
		if diff := last - prev; diff > 0.05e5 || diff < -0.05e5 {
			t.Fatalf("node %d still moving at the end: %v -> %v", i, prev, last)
		}
	}
	if res.Gamma <= 0 {
		t.Fatalf("gamma = %v", res.Gamma)
	}
}

func TestFig1SampleTopologyShape(t *testing.T) {
	nw := Fig1SampleTopology()
	if nw.Size() != 6 {
		t.Fatalf("size = %d", nw.Size())
	}
	if nw.Prob(0, 5) != 0 {
		t.Fatal("source must not reach the destination directly")
	}
}

func TestDriftSweep(t *testing.T) {
	cfg := tinyConfig(40)
	cfg.Sessions = 2
	cfg.Duration = 120
	res, err := DriftSweep(DriftSweepConfig{
		Base:           cfg,
		Jitters:        []float64{0, 0.3},
		Epochs:         2,
		ReinitOverhead: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Throughput) != 2 {
		t.Fatalf("levels = %d", len(res.Throughput))
	}
	for i, s := range res.Throughput {
		if s.N != 2 {
			t.Fatalf("level %d has %d sessions", i, s.N)
		}
		if s.Mean <= 0 {
			t.Fatalf("level %d mean throughput %v", i, s.Mean)
		}
	}
}

// TestDriftSweepCalibratesMeanQuality: the sweep runs on the deployment the
// base experiment describes, so a high-quality target moves the network off
// the lossy default (mean link quality ~0.58).
func TestDriftSweepCalibratesMeanQuality(t *testing.T) {
	cfg := tinyConfig(41)
	cfg.Sessions = 1
	cfg.MeanQuality = 0.91
	res, err := DriftSweep(DriftSweepConfig{Base: cfg, Jitters: []float64{0}, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := res.Network.MeanLinkQuality(); math.Abs(q-0.91) > 0.02 {
		t.Fatalf("drift sweep ran on mean link quality %.3f, want ~0.91", q)
	}
}

func TestRateIterationsSummary(t *testing.T) {
	cfg := tinyConfig(44)
	cfg.Sessions = 2
	cfg.Protocols = []string{ProtoOMNC}
	c, err := RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.RateIterationsSummary()
	if s.N != 2 || s.Mean <= 0 {
		t.Fatalf("iterations summary = %+v", s)
	}
	if c.MeanRateIterations() != s.Mean {
		t.Fatal("MeanRateIterations must match the summary")
	}
}
