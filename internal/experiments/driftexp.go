package experiments

import (
	"fmt"

	"omnc/internal/faults"
	"omnc/internal/metrics"
	"omnc/internal/parallel"
	"omnc/internal/protocol"
	"omnc/internal/seedmix"
	"omnc/internal/topology"
)

// DriftSweepConfig parameterizes the link-dynamics experiment (an extension
// beyond the paper's static evaluation; Sec. 4 discusses the re-initiation
// cost qualitatively).
type DriftSweepConfig struct {
	// Base supplies topology, session and protocol settings; only OMNC
	// runs (the sweep studies OMNC's re-initiation trade-off).
	Base Config
	// Jitters are the per-epoch link-quality perturbation magnitudes to
	// sweep (0 = static network).
	Jitters []float64
	// Epochs per session: the qualities drift at each of the Epochs-1
	// interior boundaries k*Duration/Epochs.
	Epochs int
	// ReinitOverhead is the dead time in seconds each re-initiation costs
	// (link probing, selection flooding, rate-control convergence).
	ReinitOverhead float64
}

// DriftSweepResult maps each jitter level to the distribution of session
// throughputs.
type DriftSweepResult struct {
	// Network is the deployment every session of the sweep ran on.
	Network *topology.Network
	Jitters []float64
	// Throughput[i] summarizes session throughputs at Jitters[i].
	Throughput []metrics.Summary
}

// DriftSweep measures OMNC throughput across sessions as link-quality drift
// intensifies. Each session is one protocol.Run under a fault plan of drift
// events: at every epoch boundary the link qualities are re-drawn, the
// session falls silent for ReinitOverhead seconds, then re-solves its rates
// over the forwarders it selected at start.
func DriftSweep(cfg DriftSweepConfig) (*DriftSweepResult, error) {
	base := cfg.Base.withDefaults()
	if len(cfg.Jitters) == 0 {
		cfg.Jitters = []float64{0, 0.15, 0.3}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	nw, err := base.Deployment()
	if err != nil {
		return nil, err
	}
	// Fixed session set across jitter levels, so the sweep is paired.
	pairs, err := placeSessions(nw, base, streamDriftPairs)
	if err != nil {
		return nil, err
	}

	// The sweep is a flat grid of (jitter level, session) cells; every cell
	// is an independent emulation, so all of them share one worker pool.
	// Each cell's protocol and drift seeds are derived from its coordinates
	// and results land in slots addressed by them, keeping the sweep
	// bit-identical across worker counts (same guarantee as RunComparison).
	tps := make([][]float64, len(cfg.Jitters))
	for ji := range tps {
		tps[ji] = make([]float64, len(pairs))
	}
	cells := len(cfg.Jitters) * len(pairs)
	err = parallel.ForEachCtx(ctxOrBackground(base.Ctx), cells, parallel.Workers(base.Workers), func(i int) error {
		ji, si := i/len(pairs), i%len(pairs)
		p := pairs[si]
		pcfg := base.SessionConfig(TrialSeed(base.Seed, si))
		plan := &faults.Plan{Seed: seedmix.Derive(base.Seed, streamDriftTrial, int64(ji), int64(si))}
		for k := 1; k < cfg.Epochs; k++ {
			plan.Events = append(plan.Events, faults.Event{
				At:       float64(k) * base.Duration / float64(cfg.Epochs),
				Kind:     faults.QualityDrift,
				Jitter:   cfg.Jitters[ji],
				Duration: cfg.ReinitOverhead,
			})
		}
		pcfg.Faults = plan
		st, err := protocol.OMNC(base.RateOptions).Run(nw, p.src, p.dst, pcfg)
		if err != nil {
			return fmt.Errorf("experiments: drift session %d->%d: %w", p.src, p.dst, err)
		}
		tps[ji][si] = st.Throughput
		if base.Progress != nil {
			base.Progress.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &DriftSweepResult{Network: nw, Jitters: cfg.Jitters}
	for ji := range cfg.Jitters {
		out.Throughput = append(out.Throughput, metrics.Summarize(tps[ji]))
	}
	return out, nil
}
