package experiments

import (
	"fmt"
	"math"

	"omnc/internal/coding"
	"omnc/internal/parallel"
	"omnc/internal/protocol"
	"omnc/internal/seedmix"
	"omnc/internal/topology"
)

// SchemesConfig describes the coding-scheme experiment: OMNC throughput on a
// lossy relay chain as the coding scheme, the source redundancy factor, and
// the chain length vary. The chain isolates what the strategy layer changes —
// whether relays re-encode (full RLNC), forward innovative packets verbatim
// (end-to-end RLNC), or forward pre-computed Reed-Solomon shards — because on
// a chain every delivered byte crossed every hop.
type SchemesConfig struct {
	// Base supplies every cell's session parameters (duration, capacity,
	// CBR rate, MAC, rate options), the seed and the worker pool; the
	// deployment and placement fields are unused because the sweep runs on
	// explicit chains. Zero Coding selects the sweep's own 16-block
	// generations at rank fidelity; Progress counts completed cells.
	Base Config
	// Hops are the chain lengths to sweep (number of links; hops+1 nodes).
	// Default {1, 2, 3, 4}.
	Hops []int
	// PerHopQuality is the delivery probability of each chain link.
	// Default 0.72 — lossy enough that multi-hop forwarding visibly decays.
	PerHopQuality float64
	// Schemes to compare; nil means all three.
	Schemes []coding.Scheme
	// Redundancies are the source emission caps to sweep, as factors of the
	// generation size (0 = rateless). Default {0, 1.5, 2.5}.
	Redundancies []float64
	// Trials averages each cell over independent seeds. Default 2.
	Trials int
}

func (c SchemesConfig) withDefaults() SchemesConfig {
	if len(c.Hops) == 0 {
		c.Hops = []int{1, 2, 3, 4}
	}
	if c.PerHopQuality == 0 {
		c.PerHopQuality = 0.72
	}
	if len(c.Schemes) == 0 {
		c.Schemes = []coding.Scheme{coding.SchemeRLNC, coding.SchemeRLNCE2E, coding.SchemeRS}
	}
	if len(c.Redundancies) == 0 {
		c.Redundancies = []float64{0, 1.5, 2.5}
	}
	if c.Trials == 0 {
		c.Trials = 2
	}
	if c.Base.Coding.GenerationSize == 0 {
		c.Base.Coding = coding.Params{GenerationSize: 16, BlockSize: 8}
	}
	c.Base = c.Base.withDefaults()
	return c
}

// CellCount returns how many (hops, scheme, redundancy, trial) emulations the
// sweep will run — the Progress total.
func (c SchemesConfig) CellCount() int {
	c = c.withDefaults()
	return len(c.Hops) * len(c.Schemes) * len(c.Redundancies) * c.Trials
}

// SchemesPoint is one cell of the sweep, averaged over the trials.
type SchemesPoint struct {
	Scheme     coding.Scheme
	Redundancy float64
	Hops       int
	// Throughput is the mean decoded bytes/second at the chain's end.
	Throughput float64
	// GenerationsDecoded is the mean count of fully decoded generations.
	GenerationsDecoded float64
}

// SchemesResult is the outcome of RunSchemesSweep.
type SchemesResult struct {
	Config SchemesConfig
	Points []SchemesPoint
}

// Point returns the swept cell for (scheme, redundancy, hops), or nil.
func (r *SchemesResult) Point(s coding.Scheme, redundancy float64, hops int) *SchemesPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Scheme == s && p.Redundancy == redundancy && p.Hops == hops {
			return p
		}
	}
	return nil
}

// schemeCell is one (hops, scheme, redundancy, trial) emulation waiting to
// run. Cells are enumerated in a fixed nested order so the trial-seed stream
// is a pure function of the configuration.
type schemeCell struct {
	hopIdx, schemeIdx, redIdx, trial int
}

// ChainNetwork builds an explicit relay chain 0-1-...-hops where every link
// delivers with probability quality, symmetric, no shortcuts. It is exported
// for tests that want to emulate schemes on the exact topology of the sweep.
func ChainNetwork(hops int, quality float64) (*topology.Network, error) {
	if hops < 1 {
		return nil, fmt.Errorf("experiments: chain needs at least 1 hop, got %d", hops)
	}
	if quality <= 0 || quality > 1 {
		return nil, fmt.Errorf("experiments: per-hop quality %v outside (0, 1]", quality)
	}
	n := hops + 1
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
	}
	for i := 0; i < hops; i++ {
		p[i][i+1] = quality
		p[i+1][i] = quality
	}
	return topology.NewExplicit(p)
}

// RunSchemesSweep emulates OMNC unicast on lossy chains of every requested
// length under every (scheme, redundancy) combination. Like the other
// runners it is deterministic for every Workers and EngineWorkers setting.
func RunSchemesSweep(cfg SchemesConfig) (*SchemesResult, error) {
	cfg = cfg.withDefaults()
	base := cfg.Base
	for _, s := range cfg.Schemes {
		if !s.Valid() {
			return nil, fmt.Errorf("%w: %d", coding.ErrInvalidScheme, int(s))
		}
	}
	for _, r := range cfg.Redundancies {
		if err := coding.ValidateRedundancy(r); err != nil {
			return nil, err
		}
	}

	// One network per chain length, shared by every scheme and trial so the
	// comparison is paired.
	nets := make([]*topology.Network, len(cfg.Hops))
	for i, hops := range cfg.Hops {
		nw, err := ChainNetwork(hops, cfg.PerHopQuality)
		if err != nil {
			return nil, err
		}
		nets[i] = nw
	}

	var cells []schemeCell
	for hi := range cfg.Hops {
		for si := range cfg.Schemes {
			for ri := range cfg.Redundancies {
				for tr := 0; tr < cfg.Trials; tr++ {
					cells = append(cells, schemeCell{hopIdx: hi, schemeIdx: si, redIdx: ri, trial: tr})
				}
			}
		}
	}

	type cellResult struct {
		throughput float64
		decoded    float64
	}
	results := make([]cellResult, len(cells))
	err := parallel.ForEachCtx(ctxOrBackground(base.Ctx), len(cells), parallel.Workers(base.Workers), func(i int) error {
		cell := cells[i]
		hops := cfg.Hops[cell.hopIdx]
		nw := nets[cell.hopIdx]
		pcfg := base.SessionConfig(seedmix.Derive(base.Seed, streamSchemesTrial, int64(i)))
		pcfg.Scheme = cfg.Schemes[cell.schemeIdx]
		pcfg.Redundancy = cfg.Redundancies[cell.redIdx]
		st, err := protocol.OMNC(base.RateOptions).Run(nw, 0, hops, pcfg)
		if err != nil {
			return fmt.Errorf("experiments: scheme %s redundancy %v hops %d: %w",
				cfg.Schemes[cell.schemeIdx], cfg.Redundancies[cell.redIdx], hops, err)
		}
		results[i] = cellResult{throughput: st.Throughput, decoded: float64(st.GenerationsDecoded)}
		if base.Progress != nil {
			base.Progress.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &SchemesResult{Config: cfg}
	for hi, hops := range cfg.Hops {
		for si, scheme := range cfg.Schemes {
			for ri, red := range cfg.Redundancies {
				pt := SchemesPoint{Scheme: scheme, Redundancy: red, Hops: hops}
				n := 0
				for i, cell := range cells {
					if cell.hopIdx == hi && cell.schemeIdx == si && cell.redIdx == ri {
						pt.Throughput += results[i].throughput
						pt.GenerationsDecoded += results[i].decoded
						n++
					}
				}
				if n == 0 {
					return nil, fmt.Errorf("experiments: no cells for scheme %s hops %d", scheme, hops)
				}
				pt.Throughput /= float64(n)
				pt.GenerationsDecoded /= float64(n)
				// Means of finite throughputs are finite; guard anyway so a
				// broken cell shows up as an error, not a NaN in a CSV.
				if math.IsNaN(pt.Throughput) || math.IsInf(pt.Throughput, 0) {
					return nil, fmt.Errorf("experiments: non-finite throughput for scheme %s hops %d", scheme, hops)
				}
				out.Points = append(out.Points, pt)
			}
		}
	}
	return out, nil
}
