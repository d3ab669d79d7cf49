package experiments

import (
	"fmt"
	"math/rand"

	"omnc/internal/core"
	"omnc/internal/graph"
	"omnc/internal/parallel"
	"omnc/internal/protocol"
	"omnc/internal/seedmix"
	"omnc/internal/topology"
)

// MultiConfig describes the multi-unicast scaling experiment: how aggregate
// throughput and inter-session fairness evolve as more unicast sessions
// contend on one shared channel — the multiple-unicast scenario the paper's
// conclusion points to.
type MultiConfig struct {
	// Base is the experiment the sweep varies: deployment, hop constraint,
	// per-cell session parameters, protocols, seed and worker pool. Its
	// Sessions field is unused — SessionCounts is the axis — and Progress
	// counts completed cells.
	Base Config
	// SessionCounts are the x-axis points: each entry is a number of
	// concurrent sessions to emulate. Default {1, 2, 4, 6}.
	SessionCounts []int
	// Trials is how many independent placements are averaged per session
	// count. Default 3.
	Trials int
}

func (c MultiConfig) withDefaults() MultiConfig {
	c.Base = c.Base.withDefaults()
	if len(c.SessionCounts) == 0 {
		c.SessionCounts = []int{1, 2, 4, 6}
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// MultiPoint is one x-axis point of the scaling experiment: per-protocol
// aggregate throughput and Jain fairness at a fixed session count, averaged
// over the trials.
type MultiPoint struct {
	// Sessions is the number of concurrent sessions at this point.
	Sessions int
	// AggregateThroughput maps protocol name to the mean (over trials) sum
	// of per-session throughputs, in bytes/second.
	AggregateThroughput map[string]float64
	// JainFairness maps protocol name to the mean Jain index over trials.
	JainFairness map[string]float64
}

// MultiScaling is the outcome of RunMultiScaling.
type MultiScaling struct {
	Config  MultiConfig
	Network *topology.Network
	Points  []MultiPoint
}

// multiCell is one (session count, trial) emulation waiting to run: the
// placed endpoint list plus the indices that address its result slot.
type multiCell struct {
	count, trial int
	sessions     []protocol.Endpoints
}

// multiCellResult carries one cell's per-protocol outcome.
type multiCellResult struct {
	aggregate map[string]float64
	jain      map[string]float64
}

// RunMultiScaling generates one deployment, places SessionCounts[i] disjoint
// unicast sessions per trial, and emulates every requested protocol on each
// cell with all of the cell's sessions contending on one shared engine. OMNC
// allocates rates jointly across the cell's sessions; the baselines contend
// uncoordinated.
//
// Like RunComparison it is deterministic for every Workers setting: placement
// is serial (one RNG stream per cell, derived from the seed and the cell's
// position), and emulation writes into index-addressed slots.
func RunMultiScaling(cfg MultiConfig) (*MultiScaling, error) {
	cfg = cfg.withDefaults()
	base := cfg.Base
	nw, err := base.Deployment()
	if err != nil {
		return nil, err
	}

	cells, err := placeMultiCells(nw, cfg)
	if err != nil {
		return nil, err
	}

	results := make([]multiCellResult, len(cells))
	err = parallel.ForEachCtx(ctxOrBackground(base.Ctx), len(cells), parallel.Workers(base.Workers), func(i int) error {
		res, err := runMultiCell(nw, cells[i], base, i)
		if err != nil {
			return fmt.Errorf("experiments: %d sessions, trial %d: %w",
				cells[i].count, cells[i].trial, err)
		}
		results[i] = *res
		if base.Progress != nil {
			base.Progress.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &MultiScaling{Config: cfg, Network: nw}
	for _, count := range cfg.SessionCounts {
		pt := MultiPoint{
			Sessions:            count,
			AggregateThroughput: make(map[string]float64, len(base.Protocols)),
			JainFairness:        make(map[string]float64, len(base.Protocols)),
		}
		trials := 0
		for i, cell := range cells {
			if cell.count != count {
				continue
			}
			trials++
			for _, name := range base.Protocols {
				pt.AggregateThroughput[name] += results[i].aggregate[name]
				pt.JainFairness[name] += results[i].jain[name]
			}
		}
		if trials == 0 {
			return nil, fmt.Errorf("experiments: no feasible placement for %d sessions", count)
		}
		for _, name := range base.Protocols {
			pt.AggregateThroughput[name] /= float64(trials)
			pt.JainFairness[name] /= float64(trials)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// placeMultiCells samples each cell's endpoint list from its own RNG stream,
// derived from (Seed, session count position, trial) — so adding a trial or a
// count never perturbs another cell's placement. Pairs within a cell are
// distinct (ValidateSessions would reject duplicates) and each must admit a
// forwarder subgraph.
func placeMultiCells(nw *topology.Network, cfg MultiConfig) ([]multiCell, error) {
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	var cells []multiCell
	for ci, count := range cfg.SessionCounts {
		if count <= 0 {
			return nil, fmt.Errorf("experiments: session count %d must be positive", count)
		}
		for tr := 0; tr < cfg.Trials; tr++ {
			rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Base.Seed, streamMultiPlacement, int64(ci)*1e6+int64(tr))))
			sessions, err := placeEndpoints(nw, adj, rng, count, cfg.Base)
			if err != nil {
				return nil, fmt.Errorf("experiments: %d sessions, trial %d: %w", count, tr, err)
			}
			cells = append(cells, multiCell{count: count, trial: tr, sessions: sessions})
		}
	}
	return cells, nil
}

// placeEndpoints samples count distinct feasible (src, dst) pairs.
func placeEndpoints(nw *topology.Network, adj [][]int, rng *rand.Rand, count int, cfg Config) ([]protocol.Endpoints, error) {
	var sessions []protocol.Endpoints
	seen := make(map[protocol.Endpoints]bool, count)
	attempts := 0
	maxAttempts := 500 * count
	for len(sessions) < count {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("only %d of %d feasible sessions found in %d attempts",
				len(sessions), count, attempts)
		}
		src := rng.Intn(nw.Size())
		dst := rng.Intn(nw.Size())
		ep := protocol.Endpoints{Src: src, Dst: dst}
		if src == dst || seen[ep] {
			continue
		}
		hops := graph.HopCounts(adj, src)[dst]
		if hops < cfg.MinHops || hops > cfg.MaxHops {
			continue
		}
		if _, err := core.SelectNodes(nw, src, dst); err != nil {
			continue
		}
		seen[ep] = true
		sessions = append(sessions, ep)
	}
	return sessions, nil
}

// runMultiCell emulates one cell under every requested protocol.
func runMultiCell(nw *topology.Network, cell multiCell, base Config, idx int) (*multiCellResult, error) {
	pcfg := base.SessionConfig(seedmix.Derive(base.Seed, streamMultiTrial, int64(idx)))
	res := &multiCellResult{
		aggregate: make(map[string]float64, len(base.Protocols)),
		jain:      make(map[string]float64, len(base.Protocols)),
	}
	for _, name := range base.Protocols {
		proto, err := Protocol(name, base.RateOptions)
		if err != nil {
			return nil, err
		}
		ms, err := protocol.RunMulti(nw, cell.sessions, proto, pcfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.aggregate[name] = ms.AggregateThroughput
		res.jain[name] = ms.JainFairness
	}
	return res, nil
}
