package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/parallel"
	"omnc/internal/protocol"
	"omnc/internal/seedmix"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// FaultsConfig describes the fault-churn experiment: how throughput and
// time-to-recover degrade as node churn and link instability rise, for every
// protocol. Each churn rate spawns a random fault plan per placed session
// (endpoints protected); rate 0 is the fault-free baseline and takes the
// exact nil-plan path, so its numbers are bit-identical to RunComparison's.
type FaultsConfig struct {
	// Base is the experiment the sweep varies: deployment, hop constraint,
	// per-session parameters, protocols, seed and worker pool. Base.Sessions
	// is how many placed (src, dst) pairs are averaged per churn rate
	// (default 3); Progress counts completed (pair, churn rate) cells.
	Base Config
	// ChurnRates are the x-axis points in crashes (and flap/burst episodes)
	// per 100 emulated seconds. Default {0, 2, 5}.
	ChurnRates []float64
	// MeanDowntime is the mean crash-to-recover delay in seconds. Default
	// Duration/8.
	MeanDowntime float64
}

func (c FaultsConfig) withDefaults() FaultsConfig {
	if c.Base.Sessions == 0 {
		c.Base.Sessions = 3
	}
	c.Base = c.Base.withDefaults()
	if len(c.ChurnRates) == 0 {
		c.ChurnRates = []float64{0, 2, 5}
	}
	if c.MeanDowntime == 0 {
		c.MeanDowntime = c.Base.Duration / 8
	}
	return c
}

// FaultPoint is one churn level of the experiment: per-protocol mean
// throughput and mean time-to-recover, averaged over the placed sessions.
type FaultPoint struct {
	// Churn is the fault intensity in events per 100 s per process.
	Churn float64
	// Throughput maps protocol name to mean decoded bytes/second.
	Throughput map[string]float64
	// Recovery maps protocol name to the mean time in seconds from a crash
	// inside the session's forwarder set to the next completed generation —
	// how long re-optimization takes to restore progress. Zero when the
	// churn level produced no crashes.
	Recovery map[string]float64
}

// FaultChurn is the outcome of RunFaultChurn.
type FaultChurn struct {
	Config  FaultsConfig
	Network *topology.Network
	Points  []FaultPoint
}

// faultCell is one (placed session, churn level) emulation waiting to run.
type faultCell struct {
	pair     int // index into the placed pairs
	churnIdx int
	src, dst int
	sg       *core.Subgraph
}

// faultCellResult carries one cell's per-protocol outcome.
type faultCellResult struct {
	throughput map[string]float64
	recovery   map[string]float64
	crashes    int
}

// RunFaultChurn generates one deployment, places Sessions endpoint pairs,
// and emulates every (pair, churn rate) cell under each requested protocol
// with a randomized fault plan of that intensity. Session endpoints never
// crash (a dead source or destination measures the plan, not the protocol);
// everything else in the forwarder set is fair game for crashes, and the
// forwarder links for flap and burst episodes.
//
// Like the other runners it is deterministic for every Workers setting.
func RunFaultChurn(cfg FaultsConfig) (*FaultChurn, error) {
	cfg = cfg.withDefaults()
	base := cfg.Base
	nw, err := base.Deployment()
	if err != nil {
		return nil, err
	}

	cells, err := placeFaultCells(nw, cfg)
	if err != nil {
		return nil, err
	}

	results := make([]faultCellResult, len(cells))
	err = parallel.ForEachCtx(ctxOrBackground(base.Ctx), len(cells), parallel.Workers(base.Workers), func(i int) error {
		res, err := runFaultCell(nw, cells[i], cfg, i)
		if err != nil {
			return fmt.Errorf("experiments: session %d->%d at churn %v: %w",
				cells[i].src, cells[i].dst, cfg.ChurnRates[cells[i].churnIdx], err)
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

	out := &FaultChurn{Config: cfg, Network: nw}
	for ci, churn := range cfg.ChurnRates {
		pt := FaultPoint{
			Churn:      churn,
			Throughput: make(map[string]float64, len(base.Protocols)),
			Recovery:   make(map[string]float64, len(base.Protocols)),
		}
		pairs, crashed := 0, 0
		for i, cell := range cells {
			if cell.churnIdx != ci {
				continue
			}
			pairs++
			if results[i].crashes > 0 {
				crashed++
			}
			for _, name := range base.Protocols {
				pt.Throughput[name] += results[i].throughput[name]
				pt.Recovery[name] += results[i].recovery[name]
			}
		}
		if pairs == 0 {
			return nil, fmt.Errorf("experiments: no cells at churn %v", churn)
		}
		for _, name := range base.Protocols {
			pt.Throughput[name] /= float64(pairs)
			// Recovery averages over the sessions that saw a crash; a
			// crash-free cell contributes nothing to either side.
			if crashed > 0 {
				pt.Recovery[name] /= float64(crashed)
			}
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// placeFaultCells samples the endpoint pairs serially (one RNG stream, so
// placement is a pure function of the seed) and crosses them with the churn
// rates.
func placeFaultCells(nw *topology.Network, cfg FaultsConfig) ([]faultCell, error) {
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Base.Seed, streamFaultsPlacement)))
	pairs, err := placeEndpoints(nw, adj, rng, cfg.Base.Sessions, cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("experiments: fault placement: %w", err)
	}
	var cells []faultCell
	for pi, ep := range pairs {
		sg, err := core.SelectNodes(nw, ep.Src, ep.Dst)
		if err != nil {
			return nil, fmt.Errorf("experiments: session %d->%d: %w", ep.Src, ep.Dst, err)
		}
		for ci := range cfg.ChurnRates {
			cells = append(cells, faultCell{pair: pi, churnIdx: ci, src: ep.Src, dst: ep.Dst, sg: sg})
		}
	}
	return cells, nil
}

// cellPlan builds the cell's randomized fault plan: crash candidates are the
// forwarder set minus the endpoints, episode candidates its undirected links.
// Churn 0 returns nil — the exact fault-free path, bit-identical to a run
// without the subsystem.
func cellPlan(cell faultCell, cfg FaultsConfig, idx int) (*faults.Plan, error) {
	churn := cfg.ChurnRates[cell.churnIdx]
	if churn <= 0 {
		return nil, nil
	}
	var candidates []int
	for _, nid := range cell.sg.Nodes {
		if nid != cell.src && nid != cell.dst {
			candidates = append(candidates, nid)
		}
	}
	seen := make(map[[2]int]bool, len(cell.sg.Links))
	var links [][2]int
	for _, l := range cell.sg.Links {
		a, b := cell.sg.Nodes[l.From], cell.sg.Nodes[l.To]
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			links = append(links, [2]int{a, b})
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	rate := churn / 100
	return faults.RandomPlan(faults.RandomPlanConfig{
		Nodes:        candidates,
		Links:        links,
		Horizon:      cfg.Base.Duration,
		CrashRate:    rate,
		MeanDowntime: cfg.MeanDowntime,
		FlapRate:     rate,
		BurstRate:    rate,
		Seed:         seedmix.Derive(cfg.Base.Seed, streamFaultsPlan, int64(idx)),
	})
}

// runFaultCell emulates one cell under every requested protocol.
func runFaultCell(nw *topology.Network, cell faultCell, cfg FaultsConfig, idx int) (*faultCellResult, error) {
	base := cfg.Base
	plan, err := cellPlan(cell, cfg, idx)
	if err != nil {
		return nil, err
	}
	res := &faultCellResult{
		throughput: make(map[string]float64, len(base.Protocols)),
		recovery:   make(map[string]float64, len(base.Protocols)),
	}
	if plan != nil {
		for _, ev := range plan.Events {
			if ev.Kind == faults.NodeCrash {
				res.crashes++
			}
		}
	}
	for _, name := range base.Protocols {
		buf := trace.NewBuffer()
		pcfg := base.SessionConfig(seedmix.Derive(base.Seed, streamFaultsTrial, int64(idx)))
		pcfg.Trace = buf
		pcfg.Faults = plan
		proto, err := Protocol(name, base.RateOptions)
		if err != nil {
			return nil, err
		}
		st, err := proto.Run(nw, cell.src, cell.dst, pcfg)
		switch {
		case errors.Is(err, protocol.ErrDestinationDown):
			// Endpoints are protected from crashes, so this cannot happen
			// from the plan itself; treat it as a dead session if it does.
			res.throughput[name] = 0
			res.recovery[name] = base.Duration
			continue
		case err != nil:
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.throughput[name] = st.Throughput
		res.recovery[name] = meanRecovery(buf.Events(), base.Duration)
	}
	return res, nil
}

// meanRecovery averages, over the crash events in the trace, the delay until
// the next completed generation — the visible cost of losing a forwarder and
// re-optimizing around it. A crash never followed by a decode counts the
// remaining horizon.
func meanRecovery(events []trace.Event, horizon float64) float64 {
	var crashes []float64
	var decodes []float64
	for _, e := range events {
		switch e.Type {
		case trace.EventNodeCrash:
			crashes = append(crashes, e.Time)
		case trace.EventDecode:
			decodes = append(decodes, e.Time)
		}
	}
	if len(crashes) == 0 {
		return 0
	}
	sum := 0.0
	for _, tc := range crashes {
		i := sort.SearchFloat64s(decodes, tc)
		if i < len(decodes) {
			sum += decodes[i] - tc
		} else {
			sum += horizon - tc
		}
	}
	return sum / float64(len(crashes))
}
