package experiments

import (
	"fmt"

	"omnc/internal/core"
	"omnc/internal/topology"
)

// Fig1Config parameterizes the convergence showcase of Fig. 1.
type Fig1Config struct {
	// Capacity is the channel capacity; the paper uses 1e5 bytes/second.
	Capacity float64
	// MaxIterations bounds the run (the paper's trace spans ~50
	// iterations).
	MaxIterations int
	// RateOptions overrides the remaining controller knobs.
	RateOptions core.Options
}

// Fig1Result is the convergence trace: per-iteration recovered broadcast
// rates for every transmitting node of the sample topology.
type Fig1Result struct {
	// Nodes are the sample-topology node IDs, index-aligned with the rate
	// series.
	Nodes []int
	// Series[i] is the broadcast-rate trace (bytes/second) of Nodes[i],
	// one entry per iteration.
	Series [][]float64
	// Iterations and Converged summarize the run.
	Iterations int
	Converged  bool
	// Gamma is the final throughput estimate.
	Gamma float64
}

// Fig1SampleTopology returns the tagged-probability sample topology used
// for the convergence showcase. The paper does not print its sample
// topology's matrix, so this is our stand-in with the same character: a
// source, two tiers of partially overlapping relays, and a destination,
// all links of intermediate quality.
func Fig1SampleTopology() *topology.Network {
	nw, err := topology.NewExplicit([][]float64{
		// S     r1   r2   r3   r4    T
		{0, 0.8, 0.6, 0, 0, 0},
		{0.8, 0, 0.5, 0.7, 0.5, 0},
		{0.6, 0.5, 0, 0, 0.8, 0},
		{0, 0.7, 0, 0, 0.4, 0.9},
		{0, 0.5, 0.8, 0.4, 0, 0.7},
		{0, 0, 0, 0.9, 0.7, 0},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: sample topology: %v", err)) // static matrix: cannot fail
	}
	return nw
}

// Fig1Convergence runs the distributed rate-control algorithm on the sample
// topology with trace recording and returns the per-node rate series,
// regenerating Fig. 1.
func Fig1Convergence(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = 1e5 // the paper's Fig. 1 setting
	}
	if cfg.MaxIterations == 0 {
		cfg.MaxIterations = 400
	}
	nw := Fig1SampleTopology()
	sg, err := core.SelectNodes(nw, 0, 5)
	if err != nil {
		return nil, err
	}
	opts := cfg.RateOptions
	opts.Capacity = cfg.Capacity
	opts.MaxIterations = cfg.MaxIterations
	opts.RecordTrace = true
	joint, err := core.RateControl([]*core.Subgraph{sg}, opts)
	if err != nil {
		return nil, err
	}
	res := joint.PerSession[0]

	out := &Fig1Result{
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Gamma:      res.Gamma,
	}
	for local, id := range sg.Nodes {
		if local == sg.Dst {
			continue // the destination never transmits
		}
		series := make([]float64, len(res.Trace))
		for t, snap := range res.Trace {
			series[t] = snap.B[local]
		}
		out.Nodes = append(out.Nodes, id)
		out.Series = append(out.Series, series)
	}
	return out, nil
}
