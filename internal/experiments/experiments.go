// Package experiments reproduces the evaluation of Sec. 5: every table and
// figure has a runner that regenerates its series, and every runner reads
// one description of the experiment, Config. The shared RunComparison
// harness emulates the same randomly placed unicast sessions under all four
// protocols (OMNC, MORE, oldMORE, ETX routing); the figure-specific views
// derive the distributions the paper plots:
//
//	Fig. 1  — Fig1Convergence: broadcast-rate trace of the distributed
//	          rate-control algorithm on a sample topology.
//	Fig. 2  — Comparison.GainCDFs: CDF of throughput gain over ETX, on the
//	          lossy (mean p ~ 0.58) and high-quality (~0.91) networks.
//	Fig. 3  — Comparison.QueueCDFs: CDF of per-session time-averaged queue
//	          size.
//	Fig. 4  — Comparison.NodeUtilityCDFs / PathUtilityCDFs.
//	Sec. 5  — Comparison.MeanRateIterations (paper: 91) and LPGapSummary
//	          (emulated vs optimized throughput).
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/graph"
	"omnc/internal/metrics"
	"omnc/internal/parallel"
	"omnc/internal/protocol"
	"omnc/internal/routing"
	"omnc/internal/seedmix"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// RNG stream identifiers mixed with Config.Seed via seedmix.Derive. Every
// random process in the harness draws from its own derived stream, so
// changing one (say, adding a trial) never perturbs another.
const (
	streamPlacement int64 = iota + 1
	streamTrial
	streamDriftPairs
	streamDriftTrial
	streamMultiPlacement
	streamMultiTrial
	streamFaultsPlacement
	streamFaultsPlan
	streamFaultsTrial
	streamSchemesTrial
)

// TrialSeed derives the deterministic protocol seed of trial idx under the
// experiment seed. It is exposed so tests and tools can reproduce a single
// trial out of a sweep without replaying the whole experiment.
func TrialSeed(seed int64, idx int) int64 {
	return seedmix.Derive(seed, streamTrial, int64(idx))
}

// Protocol names accepted by Config.Protocols.
const (
	ProtoOMNC    = "omnc"
	ProtoMORE    = "more"
	ProtoOldMORE = "oldmore"
	ProtoETX     = "etx"
)

// Config is the one description of the base experiment — the paper's Sec. 5
// set-up: a random deployment, unicast sessions a few hops apart, a CBR
// source at half the channel capacity, 40-block generations in 1 KB frames.
// RunComparison runs it as is (Figs. 2-4); the sweeps (MultiConfig,
// FaultsConfig, SchemesConfig, DriftSweepConfig) hold one as Base and vary
// their own axes over it. Deployment and SessionConfig are the only places
// a deployment and a per-trial protocol.Config are built from it.
type Config struct {
	// Nodes and Density describe the random deployment (paper: 300 at
	// density 6).
	Nodes   int
	Density float64
	// MeanQuality calibrates transmit power to a target mean link quality;
	// 0 keeps the default lossy PHY (~0.58). The high-quality experiment
	// uses 0.91.
	MeanQuality float64
	// Sessions is the number of random unicast sessions (paper: 300).
	Sessions int
	// MinHops and MaxHops constrain endpoint placement (paper: 4 to 10).
	MinHops, MaxHops int
	// Duration is the emulated seconds per session (paper: 800).
	Duration float64
	// Capacity is the channel capacity in bytes/second; the paper's CBR of
	// 1e4 B/s is "half of the channel capacity", so C = 2e4.
	Capacity float64
	// CBRRate is the source workload rate (paper: 1e4 B/s).
	CBRRate float64
	// Coding parameters; the AirPacketSize is always the paper's full
	// 40-coefficient + 1 KB frame so air times stay faithful even when
	// BlockSize is shrunk for speed.
	Coding        coding.Params
	AirPacketSize int
	// Scheme selects the coding strategy for every emulated session
	// (default: full-recoding RLNC); Redundancy caps source emissions per
	// generation (0 = rateless). See coding.Scheme.
	Scheme     coding.Scheme
	Redundancy float64
	// QueueSampleInterval enables Fig. 3's queue sampling when positive.
	QueueSampleInterval float64
	// Protocols to run; nil means all four.
	Protocols []string
	// MAC selects the channel model (default: the ideal oracle scheduler).
	MAC sim.Mode
	// RateOptions tunes OMNC's rate controller.
	RateOptions core.Options
	// SolveLPGap additionally computes the centralized sUnicast optimum
	// per session (the Sec. 5 optimized-vs-emulated comparison).
	SolveLPGap bool
	// Seed makes the whole experiment reproducible.
	Seed int64
	// Workers bounds how many sessions are emulated concurrently: 1 runs
	// strictly serially, anything else (including the zero value) uses one
	// worker per available CPU. Results are bit-identical for every worker
	// count — each trial runs on its own sim.Engine with an RNG stream
	// derived from (Seed, trial index) and lands in a slice slot addressed
	// by its trial index.
	Workers int
	// EngineWorkers selects each session's event engine: 0 the serial
	// engine, N >= 1 the conservative parallel engine with N workers
	// (protocol.Config EngineWorkers). Orthogonal to Workers — that fans
	// sessions out, this parallelizes inside one session — and results are
	// bit-identical for every value.
	EngineWorkers int
	// Progress, when non-nil, is incremented once per completed session so
	// callers can report sweep progress from another goroutine.
	Progress *metrics.Progress
	// Report enables per-session observability reports (protocol.Config
	// Report); each Stats in SessionResult.ByProtocol then carries one.
	Report bool
	// Ctx, when non-nil, cancels the sweep cooperatively: no new session is
	// dispatched once it is done, and the runner returns the context's
	// error. Sessions already emulating run to completion — cancellation is
	// a session-boundary affair, which keeps every completed result
	// bit-identical to an uncancelled run's. Nil means context.Background().
	Ctx context.Context
}

// ctxOrBackground normalizes an optional per-sweep context.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// PaperConfig returns the full-scale evaluation settings of Sec. 5.
// Expect hours of CPU time; QuickConfig is the scaled-down default.
func PaperConfig(seed int64) Config {
	return Config{
		Nodes:               300,
		Density:             6,
		Sessions:            300,
		MinHops:             4,
		MaxHops:             10,
		Duration:            800,
		Capacity:            2e4,
		CBRRate:             1e4,
		Coding:              coding.Params{GenerationSize: 40, BlockSize: 1024},
		AirPacketSize:       40 + 1024,
		QueueSampleInterval: 0.5,
		Seed:                seed,
	}
}

// QuickConfig returns a laptop-scale variant of PaperConfig: the same
// topology and per-packet fidelity, but fewer sessions, shorter emulated
// time, and a 8-byte payload fidelity (air times still use the 1 KB frame;
// innovation arithmetic is exact because it depends only on coefficients).
func QuickConfig(seed int64) Config {
	cfg := PaperConfig(seed)
	cfg.Sessions = 30
	cfg.Duration = 200
	cfg.Coding.BlockSize = 8
	return cfg
}

// withDefaults fills zero fields from QuickConfig, the one statement of the
// laptop-scale base experiment. CBRRate and QueueSampleInterval keep their
// zero meanings (backlogged source, no sampling).
func (c Config) withDefaults() Config {
	d := QuickConfig(c.Seed)
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Density == 0 {
		c.Density = d.Density
	}
	if c.Sessions == 0 {
		c.Sessions = d.Sessions
	}
	if c.MinHops == 0 {
		c.MinHops = d.MinHops
	}
	if c.MaxHops == 0 {
		c.MaxHops = d.MaxHops
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	if c.Capacity == 0 {
		c.Capacity = d.Capacity
	}
	if c.Coding.GenerationSize == 0 {
		c.Coding = d.Coding
	}
	if c.AirPacketSize == 0 {
		c.AirPacketSize = c.Coding.CoeffBytes() + 1024
	}
	if len(c.Protocols) == 0 {
		c.Protocols = []string{ProtoOMNC, ProtoMORE, ProtoOldMORE, ProtoETX}
	}
	return c
}

// Deployment generates the experiment's network: Nodes at Density placed
// from Seed, with transmit power calibrated to MeanQuality when one is set.
// Every runner and job kind that needs a random deployment builds it here.
func (c Config) Deployment() (*topology.Network, error) {
	c = c.withDefaults()
	nw, err := topology.Generate(topology.Config{
		Nodes:   c.Nodes,
		Density: c.Density,
		PHY:     topology.DefaultPHY(),
		Seed:    c.Seed,
	})
	if err != nil || c.MeanQuality <= 0 {
		return nw, err
	}
	phy, err := topology.DefaultPHY().CalibrateGain(c.MeanQuality)
	if err != nil {
		return nil, err
	}
	return nw.WithPHY(phy)
}

// SessionConfig returns the protocol.Config of one emulated trial of the
// experiment, seeded by seed — the runners derive that seed from their own
// frozen stream and attach what is theirs alone (a fault plan, a trace).
func (c Config) SessionConfig(seed int64) protocol.Config {
	return protocol.Config{
		Coding:              c.Coding,
		Scheme:              c.Scheme,
		Redundancy:          c.Redundancy,
		AirPacketSize:       c.AirPacketSize,
		Capacity:            c.Capacity,
		Duration:            c.Duration,
		CBRRate:             c.CBRRate,
		Seed:                seed,
		QueueSampleInterval: c.QueueSampleInterval,
		MAC:                 c.MAC,
		Report:              c.Report,
		EngineWorkers:       c.EngineWorkers,
	}
}

// Protocol maps a protocol name to its Protocol value, single- and
// multi-session capable; opts tunes OMNC's rate controller.
func Protocol(name string, opts core.Options) (protocol.Protocol, error) {
	switch name {
	case ProtoOMNC:
		return protocol.OMNC(opts), nil
	case ProtoMORE:
		return protocol.NewProtocol("more", routing.MORE()), nil
	case ProtoOldMORE:
		return protocol.NewProtocol("oldmore", routing.OldMORE()), nil
	case ProtoETX:
		return protocol.ETX(), nil
	default:
		return protocol.Protocol{}, fmt.Errorf("unknown protocol %q", name)
	}
}

// SessionResult holds one session's endpoints and per-protocol statistics.
type SessionResult struct {
	Src, Dst int
	Hops     int
	// ByProtocol maps protocol name to its session statistics.
	ByProtocol map[string]*protocol.Stats
	// LPGamma is the centralized sUnicast optimum (bytes/s) when
	// Config.SolveLPGap is set.
	LPGamma float64
}

// Comparison is the outcome of RunComparison.
type Comparison struct {
	Config   Config
	Network  *topology.Network
	Sessions []SessionResult
}

// trial is one placed session waiting to be emulated: endpoints, hop count,
// and the forwarder subgraph the placement phase already selected.
type trial struct {
	src, dst, hops int
	sg             *core.Subgraph
}

// RunComparison generates the deployment, samples sessions under the hop
// constraint, and emulates every requested protocol on each session.
//
// It runs in two phases. Placement is serial: a single RNG stream samples
// endpoint candidates, so the accepted session list depends only on the
// seed. Emulation fans the placed trials out over Config.Workers goroutines;
// each trial owns a private discrete-event engine and an RNG stream derived
// from (Seed, trial index), and writes its result into the slot addressed by
// its trial index — so the returned Comparison is bit-identical whether the
// trials ran on one worker or thirty-two.
func RunComparison(cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	nw, err := cfg.Deployment()
	if err != nil {
		return nil, err
	}

	trials, err := placeSessions(nw, cfg, streamPlacement)
	if err != nil {
		return nil, err
	}

	out := &Comparison{Config: cfg, Network: nw}
	out.Sessions = make([]SessionResult, len(trials))
	err = parallel.ForEachCtx(ctxOrBackground(cfg.Ctx), len(trials), parallel.Workers(cfg.Workers), func(i int) error {
		tr := trials[i]
		res, err := runSession(nw, tr.sg, tr.src, tr.dst, cfg, i)
		if err != nil {
			return fmt.Errorf("experiments: session %d->%d: %w", tr.src, tr.dst, err)
		}
		res.Hops = tr.hops
		out.Sessions[i] = *res
		if cfg.Progress != nil {
			cfg.Progress.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// placeSessions samples (src, dst) candidates from the given placement RNG
// stream until Config.Sessions pairs satisfy the hop constraint and have a
// feasible forwarder subgraph. It is deliberately serial: one RNG stream
// consumed in a fixed order is what makes the trial list a pure function of
// the seed.
func placeSessions(nw *topology.Network, cfg Config, stream int64) ([]trial, error) {
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Seed, stream)))

	var trials []trial
	attempts := 0
	maxAttempts := 200 * cfg.Sessions
	for len(trials) < cfg.Sessions {
		attempts++
		if attempts > maxAttempts {
			if len(trials) == 0 {
				return nil, fmt.Errorf("experiments: no session satisfying %d-%d hops found in %d attempts",
					cfg.MinHops, cfg.MaxHops, attempts)
			}
			break
		}
		src := rng.Intn(nw.Size())
		dst := rng.Intn(nw.Size())
		if src == dst {
			continue
		}
		hops := graph.HopCounts(adj, src)[dst]
		if hops < cfg.MinHops || hops > cfg.MaxHops {
			continue
		}
		sg, err := core.SelectNodes(nw, src, dst)
		if err != nil {
			continue
		}
		trials = append(trials, trial{src: src, dst: dst, hops: hops, sg: sg})
	}
	return trials, nil
}

func runSession(nw *topology.Network, sg *core.Subgraph, src, dst int, cfg Config, idx int) (*SessionResult, error) {
	pcfg := cfg.SessionConfig(TrialSeed(cfg.Seed, idx))
	res := &SessionResult{Src: src, Dst: dst, ByProtocol: make(map[string]*protocol.Stats, len(cfg.Protocols))}
	for _, name := range cfg.Protocols {
		proto, err := Protocol(name, cfg.RateOptions)
		if err != nil {
			return nil, err
		}
		st, err := proto.Run(nw, src, dst, pcfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.ByProtocol[name] = st
	}
	if cfg.SolveLPGap {
		lpRes, err := core.SolveLP(sg, cfg.Capacity)
		if err != nil {
			return nil, fmt.Errorf("lp: %w", err)
		}
		res.LPGamma = lpRes.Gamma
	}
	return res, nil
}

// GainCDFs returns Fig. 2's series: the CDF of throughput gain over ETX
// routing for every coded protocol that was run. Gains are paired per
// session — only sessions where both the coded protocol and the ETX
// baseline ran contribute — so the slices handed to metrics.Gains are
// parallel by construction.
func (c *Comparison) GainCDFs() map[string]*metrics.CDF {
	out := make(map[string]*metrics.CDF)
	for _, name := range []string{ProtoOMNC, ProtoMORE, ProtoOldMORE} {
		var tp, base []float64
		for _, s := range c.Sessions {
			st, ok := s.ByProtocol[name]
			bst, bok := s.ByProtocol[ProtoETX]
			if ok && bok {
				tp = append(tp, st.Throughput)
				base = append(base, bst.Throughput)
			}
		}
		if len(tp) > 0 {
			out[name] = metrics.NewCDF(metrics.Gains(tp, base))
		}
	}
	return out
}

// QueueCDFs returns Fig. 3's series: the CDF over sessions of the per-node
// time-averaged queue size.
func (c *Comparison) QueueCDFs() map[string]*metrics.CDF {
	out := make(map[string]*metrics.CDF)
	for _, name := range []string{ProtoOMNC, ProtoMORE, ProtoOldMORE, ProtoETX} {
		var samples []float64
		for _, s := range c.Sessions {
			if st, ok := s.ByProtocol[name]; ok {
				samples = append(samples, st.MeanQueue)
			}
		}
		if len(samples) > 0 {
			out[name] = metrics.NewCDF(samples)
		}
	}
	return out
}

// NodeUtilityCDFs returns the first half of Fig. 4.
func (c *Comparison) NodeUtilityCDFs() map[string]*metrics.CDF {
	return c.utilityCDFs(func(st *protocol.Stats) float64 { return st.NodeUtility })
}

// PathUtilityCDFs returns the second half of Fig. 4.
func (c *Comparison) PathUtilityCDFs() map[string]*metrics.CDF {
	return c.utilityCDFs(func(st *protocol.Stats) float64 { return st.PathUtility })
}

func (c *Comparison) utilityCDFs(metric func(*protocol.Stats) float64) map[string]*metrics.CDF {
	out := make(map[string]*metrics.CDF)
	for _, name := range []string{ProtoOMNC, ProtoMORE, ProtoOldMORE} {
		var samples []float64
		for _, s := range c.Sessions {
			if st, ok := s.ByProtocol[name]; ok {
				samples = append(samples, metric(st))
			}
		}
		if len(samples) > 0 {
			out[name] = metrics.NewCDF(samples)
		}
	}
	return out
}

// ReportTotals aggregates one protocol's per-session reports across the
// comparison (Config.Report runs only).
type ReportTotals struct {
	Sessions       int
	TxFrames       int64
	RxPackets      int64
	Innovative     int64
	Discarded      int64
	AirtimeSeconds float64
	Replans        int
}

// ReportTotals sums the session reports per protocol. The map is empty when
// the comparison ran without Config.Report.
func (c *Comparison) ReportTotals() map[string]ReportTotals {
	out := make(map[string]ReportTotals)
	for _, s := range c.Sessions {
		for name, st := range s.ByProtocol {
			if st.Report == nil {
				continue
			}
			t := out[name]
			t.Sessions++
			t.TxFrames += st.Report.TotalTx()
			t.RxPackets += st.Report.TotalRx()
			t.Innovative += st.Report.TotalInnovative()
			t.Discarded += st.Report.TotalDiscarded()
			t.AirtimeSeconds += st.Report.MAC.AirtimeSeconds
			t.Replans += st.Report.Faults.Replans
			out[name] = t
		}
	}
	return out
}

// MeanRateIterations returns the average iteration count of OMNC's
// distributed rate controller across sessions (the paper reports 91).
func (c *Comparison) MeanRateIterations() float64 {
	return c.RateIterationsSummary().Mean
}

// RateIterationsSummary returns the distribution of OMNC rate-control
// iteration counts across sessions.
func (c *Comparison) RateIterationsSummary() metrics.Summary {
	var iters []float64
	for _, s := range c.Sessions {
		if st, ok := s.ByProtocol[ProtoOMNC]; ok && st.RateIterations > 0 {
			iters = append(iters, float64(st.RateIterations))
		}
	}
	return metrics.Summarize(iters)
}

// LPGapSummary summarizes emulated-OMNC / optimized-gamma ratios (Sec. 5
// observes emulated throughput below the optimized value). Requires
// Config.SolveLPGap.
func (c *Comparison) LPGapSummary() metrics.Summary {
	var ratios []float64
	for _, s := range c.Sessions {
		st, ok := s.ByProtocol[ProtoOMNC]
		if !ok || s.LPGamma <= 0 {
			continue
		}
		ratios = append(ratios, st.Throughput/s.LPGamma)
	}
	return metrics.Summarize(ratios)
}
