package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"omnc"
	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/experiments"
	"omnc/internal/graph"
	"omnc/internal/loopback"
	"omnc/internal/metrics"
	"omnc/internal/parallel"
	"omnc/internal/seedmix"
	"omnc/internal/trace"
	"time"
)

// RNG streams for the session and loopback kinds: endpoint placement and
// per-trial loss processes draw from separate streams, so any surface that
// runs the same Spec replays the same session. These values are frozen —
// changing them changes every seeded result.
const (
	streamSessionPlacement int64 = 100
	streamSessionTrial     int64 = 101
	streamLoopbackTrial    int64 = 201
)

// Result is what running a Spec produces: a one-line Summary, the byte-exact
// Artifacts the equivalent CLI invocation would have written, and the typed
// in-memory results the CLIs use for their rich terminal output. Only the
// serializable head (spec, summary, src/dst, artifacts) lands in result.json;
// the typed fields are process-local.
type Result struct {
	Spec    Spec   `json:"spec"`
	Summary string `json:"summary"`
	// Src and Dst are the resolved session endpoints (KindSession only).
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`
	// Artifacts are the run's landed files, in stable order.
	Artifacts []Artifact `json:"artifacts,omitempty"`

	// Typed results for in-process callers (the CLIs); never serialized.
	Comparison *experiments.Comparison       `json:"-"`
	Fig1       *experiments.Fig1Result       `json:"-"`
	Drift      *experiments.DriftSweepResult `json:"-"`
	Multi      *experiments.MultiScaling     `json:"-"`
	Faults     *experiments.FaultChurn       `json:"-"`
	Schemes    *experiments.SchemesResult    `json:"-"`
	Session    []*omnc.SessionStats          `json:"-"`
	Subgraph   *omnc.Subgraph                `json:"-"`
	Network    *omnc.Network                 `json:"-"`
	Loopback   []*loopback.Result            `json:"-"`
}

// Artifact returns the named artifact, or nil.
func (r *Result) Artifact(name string) *Artifact {
	for i := range r.Artifacts {
		if r.Artifacts[i].Name == name {
			return &r.Artifacts[i]
		}
	}
	return nil
}

// progressHandle bundles the live-progress sink and the cancellation context
// of one run.
type progressHandle struct {
	p   *metrics.Progress
	ctx context.Context
}

// watch threads the handle into the base experiment a runner is about to
// execute.
func (h *progressHandle) watch(cfg *experiments.Config) {
	cfg.Progress, cfg.Ctx = h.p, h.ctx
}

// Run validates and executes the Spec, honouring ctx at the experiment's
// natural cancellation boundaries (between sessions, cells or trials —
// completed work is never perturbed, so partial cancellation cannot change
// any result that is produced).
func Run(ctx context.Context, s Spec) (*Result, error) {
	return RunWithProgress(ctx, s, nil)
}

// RunWithProgress is Run with a live progress sink: p (when non-nil) is
// incremented once per completed unit, out of Spec.Units() total. The daemon
// snapshots it for GET /jobs/{id}; the CLIs tick it to stderr.
func RunWithProgress(ctx context.Context, s Spec, p *metrics.Progress) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	h := &progressHandle{p: p, ctx: ctx}
	switch s.Kind {
	case KindComparison:
		return runComparison(s, h)
	case KindFig1:
		return runFig1(s)
	case KindDrift:
		return runDrift(s, h)
	case KindMulti:
		return runMulti(s, h)
	case KindFaults:
		return runFaults(s, h)
	case KindSchemes:
		return runSchemes(s, h)
	case KindSession:
		return runSession(s, h)
	case KindTopo:
		return runTopo(s)
	case KindLoopback:
		return runLoopback(s, h)
	}
	return nil, fmt.Errorf("jobs: unknown kind %q", s.Kind)
}

func runComparison(s Spec, h *progressHandle) (*Result, error) {
	cfg := s.Config()
	h.watch(&cfg)
	c, err := experiments.RunComparison(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: s, Comparison: c}
	for _, f := range s.SortedFigures() {
		switch f {
		case "2l", "2r":
			a, err := curvesArtifact("fig"+f+"_gains.csv", "gain", c.GainCDFs())
			if err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, a)
		case "3":
			a, err := curvesArtifact("fig3_queues.csv", "queue", c.QueueCDFs())
			if err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, a)
		case "4":
			a, err := curvesArtifact("fig4_node_utility.csv", "node_utility", c.NodeUtilityCDFs())
			if err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, a)
			a, err = curvesArtifact("fig4_path_utility.csv", "path_utility", c.PathUtilityCDFs())
			if err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, a)
		}
	}
	res.Summary = fmt.Sprintf("%d sessions on %d nodes; mean link quality %.3f",
		cfg.Sessions, cfg.Nodes, c.Network.MeanLinkQuality())
	if cfg.SolveLPGap {
		res.Summary += fmt.Sprintf("; emulated/optimized %s", c.LPGapSummary())
	}
	return res, nil
}

func runFig1(s Spec) (*Result, error) {
	// The convergence showcase runs on its fixed sample topology — the Spec
	// contributes nothing but the kind, exactly like omnc-fig -fig 1.
	r, err := experiments.Fig1Convergence(experiments.Fig1Config{})
	if err != nil {
		return nil, err
	}
	a, err := fig1Artifact(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec: s, Fig1: r, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("converged=%v after %d iterations; gamma %.0f B/s",
			r.Converged, r.Iterations, r.Gamma),
	}, nil
}

func runDrift(s Spec, h *progressHandle) (*Result, error) {
	dc := s.driftConfig()
	h.watch(&dc.Base)
	r, err := experiments.DriftSweep(dc)
	if err != nil {
		return nil, err
	}
	a, err := driftArtifact(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec: s, Drift: r, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("%d jitter levels, %d sessions each", len(r.Jitters), dc.Base.Sessions),
	}, nil
}

func runMulti(s Spec, h *progressHandle) (*Result, error) {
	mc := s.MultiConfig()
	h.watch(&mc.Base)
	r, err := experiments.RunMultiScaling(mc)
	if err != nil {
		return nil, err
	}
	a, err := multiArtifact(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec: s, Multi: r, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("session counts %v, %d trials each", mc.SessionCounts, mc.Trials),
	}, nil
}

func runFaults(s Spec, h *progressHandle) (*Result, error) {
	fc := s.FaultsConfig()
	h.watch(&fc.Base)
	r, err := experiments.RunFaultChurn(fc)
	if err != nil {
		return nil, err
	}
	a, err := faultsArtifact(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec: s, Faults: r, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("%d sessions x churn %v per 100 s", fc.Base.Sessions, fc.ChurnRates),
	}, nil
}

func runSchemes(s Spec, h *progressHandle) (*Result, error) {
	sc := s.schemesConfig()
	h.watch(&sc.Base)
	r, err := experiments.RunSchemesSweep(sc)
	if err != nil {
		return nil, err
	}
	a, err := schemesArtifact(r)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec: s, Schemes: r, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("%d cells (schemes x redundancy x chain length)", sc.CellCount()),
	}, nil
}

func runSession(s Spec, h *progressHandle) (*Result, error) {
	d, cfg := s.withDefaults(), s.Config()
	nw, err := cfg.Deployment()
	if err != nil {
		return nil, err
	}
	src, dst := -1, -1
	if s.Src != nil {
		src, dst = *s.Src, *s.Dst
	} else {
		if src, dst, err = pickSession(nw, s.Seed, cfg.MinHops, cfg.MaxHops); err != nil {
			return nil, err
		}
	}
	sg, err := omnc.SelectForwarders(nw, src, dst)
	if err != nil {
		return nil, err
	}

	pcfg := cfg.SessionConfig(s.Seed)
	pcfg.Faults = s.Faults
	var traceBuf *bytes.Buffer
	if s.Trace {
		traceBuf = &bytes.Buffer{}
		pcfg.Trace = trace.NewJSONLWriter(traceBuf)
	}
	proto, err := experiments.Protocol(d.Protocol, cfg.RateOptions)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}

	trials := d.Trials
	stats := make([]*omnc.SessionStats, trials)
	err = parallel.ForEachCtx(h.ctx, trials, parallel.Workers(s.Workers), func(i int) error {
		tcfg := pcfg
		if trials > 1 {
			tcfg.Seed = seedmix.Derive(s.Seed, streamSessionTrial, int64(i))
		}
		st, err := proto.Run(nw, src, dst, tcfg)
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		stats[i] = st
		if h.p != nil {
			h.p.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Spec: s, Session: stats, Subgraph: sg, Network: nw,
		Src: &src, Dst: &dst,
	}
	if trials > 1 {
		tps := make([]float64, trials)
		for i, st := range stats {
			tps[i] = st.Throughput
		}
		res.Summary = fmt.Sprintf("%s, %d trials; throughput %s", stats[0].Policy, trials, metrics.Summarize(tps))
	} else {
		st := stats[0]
		res.Summary = fmt.Sprintf("%s %d -> %d; throughput %.0f bytes/s, %d generations decoded",
			st.Policy, src, dst, st.Throughput, st.GenerationsDecoded)
		if s.Report {
			if st.Report == nil {
				return nil, fmt.Errorf("jobs: reporting was requested but the session produced no report")
			}
			buf, err := json.MarshalIndent(st.Report, "", "  ")
			if err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, newArtifact("report.json", append(buf, '\n')))
		}
		if s.Trace {
			res.Artifacts = append(res.Artifacts, newArtifact("trace.jsonl", traceBuf.Bytes()))
		}
	}
	return res, nil
}

func runTopo(s Spec) (*Result, error) {
	nw, err := s.Config().Deployment()
	if err != nil {
		return nil, err
	}
	a, err := linksArtifact(nw)
	if err != nil {
		return nil, err
	}
	linkCount := 0
	for i := 0; i < nw.Size(); i++ {
		linkCount += len(nw.Neighbors(i))
	}
	return &Result{
		Spec: s, Network: nw, Artifacts: []Artifact{a},
		Summary: fmt.Sprintf("%d nodes, %d directed links, mean link quality %.3f",
			nw.Size(), linkCount, nw.MeanLinkQuality()),
	}, nil
}

func runLoopback(s Spec, h *progressHandle) (*Result, error) {
	d := s.withDefaults()
	nw, err := omnc.NetworkFromMatrix([][]float64{
		{0, 0.8, 0.6, 0},
		{0.8, 0, 0, 0.7},
		{0.6, 0, 0, 0.9},
		{0, 0.7, 0.9, 0},
	})
	if err != nil {
		return nil, err
	}
	sg, err := core.SelectNodes(nw, 0, 3)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, sg.Size())
	for i := range rates {
		rates[i] = d.Rate
	}
	rates[sg.Dst] = 0

	trials := d.Trials
	results := make([]*loopback.Result, trials)
	err = parallel.ForEachCtx(h.ctx, trials, parallel.Workers(s.Workers), func(i int) error {
		trialSeed := s.Seed
		if trials > 1 {
			trialSeed = seedmix.Derive(s.Seed, streamLoopbackTrial, int64(i))
		}
		r, err := loopback.RunSession(nw, sg, loopback.Config{
			Coding:     coding.Params{GenerationSize: d.GenerationSize, BlockSize: d.BlockSize, Field: d.field()},
			Scheme:     d.scheme(),
			Redundancy: d.Redundancy,
			Rates:      rates,
			Duration:   time.Duration(d.Duration * float64(time.Second)),
			Seed:       trialSeed,
		})
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		results[i] = r
		if h.p != nil {
			h.p.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var decoded, corrupted int
	for _, r := range results {
		decoded += r.GenerationsDecoded
		corrupted += r.Corrupted
	}
	return &Result{
		Spec: s, Loopback: results, Subgraph: sg, Network: nw,
		Summary: fmt.Sprintf("%d generations decoded over %d session(s), %d corrupted",
			decoded, trials, corrupted),
	}, nil
}

// pickSession samples endpoints with the paper's hop constraint from the
// session kind's frozen placement stream, so every surface that runs a
// session job places it alike.
func pickSession(nw *omnc.Network, seed int64, minHops, maxHops int) (int, int, error) {
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, streamSessionPlacement)))
	for attempt := 0; attempt < 5000; attempt++ {
		src := rng.Intn(nw.Size())
		dst := rng.Intn(nw.Size())
		if src == dst {
			continue
		}
		h := graph.HopCounts(adj, src)[dst]
		if h < minHops || h > maxHops {
			continue
		}
		if _, err := omnc.SelectForwarders(nw, src, dst); err != nil {
			continue
		}
		return src, dst, nil
	}
	return 0, 0, fmt.Errorf("jobs: no session with %d-%d hops found", minHops, maxHops)
}
