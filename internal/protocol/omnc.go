package protocol

import (
	"fmt"

	"omnc/internal/core"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// CSMAUtilization is the fraction of the MAC constraint (4) budget the OMNC
// rate vector is rescaled to when driving the decentralized CSMA channel.
//
// The optimizer's solution saturates b_i + sum_{j in N(i)} b_j <= C with
// equality at bottleneck receivers, which only a collision-free oracle
// scheduler can realize: transmitters that cannot hear each other (hidden
// terminals) would jam such a receiver continuously. The paper's own remedy
// applies — "feasible schedules can be generated by rescaling the broadcast
// rate" (Sec. 3.2) — and rescaling to about half the budget trades a linear
// rate reduction for a superlinear drop in interference under carrier-sense
// access. Under the oracle MAC (the paper's evaluation model) no margin is
// needed and the full budget is used. TestAblationUtilization sweeps this
// knob over 0.25/0.5/0.75/1.0 on three 150-node topologies: 0.5 has the
// largest summed goodput (1314 B/s) and the full budget the smallest (631).
const CSMAUtilization = 0.5

// OMNC returns the policy builder for the paper's protocol: the distributed
// rate-control algorithm of Table 1 assigns every selected node its
// encoding/broadcast rate, the vector is rescaled into the MAC-feasible
// region (with a contention margin when the session runs on the CSMA
// channel), and forwarders follow the OMNC queue discipline (Sec. 4).
func OMNC(opts core.Options) Builder {
	return func(sg *core.Subgraph, cfg Config) (*Policy, error) {
		utilization := 1.0
		if cfg.MAC == sim.ModeCSMA {
			utilization = CSMAUtilization
		}
		return omncAtUtilization(opts, utilization)(sg, cfg)
	}
}

// omncAtUtilization is OMNC with an explicit utilization target in (0, 1].
func omncAtUtilization(opts core.Options, utilization float64) Builder {
	return func(sg *core.Subgraph, cfg Config) (*Policy, error) {
		if utilization <= 0 || utilization > 1 {
			return nil, fmt.Errorf("protocol: utilization %v outside (0, 1]", utilization)
		}
		if opts.Capacity <= 0 {
			opts.Capacity = cfg.Capacity
		}
		res, err := core.NewRateController(sg, opts).Run()
		if err != nil {
			return nil, err
		}
		// Rates must support the recovered flows (constraint (5)); see
		// core.Result.SupportingRates for why the raw recovered vector can
		// be degenerate.
		caps, _ := core.RescaleFeasible(sg, res.SupportingRates(sg), utilization*opts.Capacity)
		// A node whose optimized rate is negligible never gets a turn; the
		// MAC would otherwise schedule glacial transmissions for it.
		exclude := make([]bool, sg.Size())
		minRate := 1e-4 * opts.Capacity
		for i, b := range caps {
			if i != sg.Src && b < minRate {
				exclude[i] = true
			}
		}
		return &Policy{
			Name:             "omnc",
			Caps:             caps,
			Credit:           make([]float64, sg.Size()), // unused: pacing is by rate
			SendWhenNonEmpty: true,
			Exclude:          exclude,
			Gamma:            res.Gamma,
			RateIterations:   res.Iterations,
		}, nil
	}
}

// OMNCMulti returns the multi-session constructor for OMNC: rates come from
// the joint controller (core.MultiRateController), whose congestion prices
// are shared per physical node, so the per-session allocations at a common
// forwarder sum to a feasible neighbourhood budget — unlike the
// uncoordinated baselines, which each contend as if alone.
func OMNCMulti(opts core.Options) MultiBuilder {
	return func(env *Env, net *topology.Network, specs []SessionSpec, cfg Config) ([]Session, error) {
		if opts.Capacity <= 0 {
			opts.Capacity = cfg.Capacity
		}
		utilization := 1.0
		if cfg.MAC == sim.ModeCSMA {
			utilization = CSMAUtilization
		}
		multi := make([]core.MultiSession, len(specs))
		for i, sp := range specs {
			multi[i] = core.MultiSession{Subgraph: sp.Subgraph}
		}
		mc, err := core.NewMultiRateController(multi, opts)
		if err != nil {
			return nil, err
		}
		joint, err := mc.Run()
		if err != nil {
			return nil, err
		}
		out := make([]Session, len(specs))
		rts := make([]*runtime, len(specs))
		for i, sp := range specs {
			sg := sp.Subgraph
			// Rates must support the recovered flows (constraint (5)); the
			// joint controller's aggregate constraint keeps the per-node sums
			// feasible across sessions.
			rates := joint.PerSession[i].SupportingRates(sg)
			caps, _ := core.RescaleFeasible(sg, rates, utilization*opts.Capacity)
			exclude := make([]bool, sg.Size())
			minRate := 1e-4 * opts.Capacity
			for j, b := range caps {
				if j != sg.Src && b < minRate {
					exclude[j] = true
				}
			}
			pol := &Policy{
				Name:             "omnc",
				Caps:             caps,
				Credit:           make([]float64, sg.Size()),
				SendWhenNonEmpty: true,
				Exclude:          exclude,
				Gamma:            joint.PerSession[i].Gamma,
			}
			rt, err := newSharedRuntime(env, net, sg, pol, cfg, uint32(sp.ID))
			if err != nil {
				return nil, err
			}
			out[i] = rt
			rts[i] = rt
		}
		if env.Faults != nil {
			// Per-session handlers (subscribed first, in attachRuntime) own
			// crash/rejoin state; this joint pass re-divides the surviving
			// capacity across sessions, keeping the allocations coordinated
			// under churn.
			env.Faults.Subscribe(jointReplan(env, rts, opts, utilization))
		}
		return out, nil
	}
}
