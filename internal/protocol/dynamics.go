package protocol

import (
	"errors"
	"fmt"
	"math/rand"

	"omnc/internal/core"
	"omnc/internal/topology"
)

// DriftConfig injects link-quality drift and node failures into a
// long-lived session. Sec. 4 of the paper argues OMNC targets networks
// whose link qualities are stable on short time scales, and that when they
// do change "the node selection and rate allocation have to be re-initiated,
// which brings a certain amount of overhead" — this runner quantifies that
// trade-off.
type DriftConfig struct {
	// Epochs splits the session into this many quality epochs; the network
	// is re-perturbed and the protocol re-initialized at each boundary.
	// Minimum 1 (no drift).
	Epochs int
	// Jitter is the per-epoch multiplicative link-quality perturbation
	// (e.g. 0.3 for +/-30%).
	Jitter float64
	// FailuresPerEpoch kills this many randomly chosen selected forwarders
	// (never the endpoints) at each epoch boundary; failures accumulate.
	FailuresPerEpoch int
	// ReinitOverhead is the dead time in seconds charged per
	// re-initiation: link probing, node selection flooding and rate-control
	// convergence.
	ReinitOverhead float64
	// Seed drives the perturbations and failure choices.
	Seed int64
}

// DriftStats aggregates a session under dynamics.
type DriftStats struct {
	// PerEpoch holds each epoch's session statistics; unreachable epochs
	// (the failures disconnected the pair) have nil entries.
	PerEpoch []*Stats
	// Throughput is total decoded bytes over the full wall duration,
	// re-initiation overhead included.
	Throughput float64
	// Reinits counts re-initiations performed (Epochs - 1 plus one initial
	// setup, reported as Epochs).
	Reinits int
	// UnreachableEpochs counts epochs lost entirely to disconnection.
	UnreachableEpochs int
	// FailedNodes lists the nodes killed over the run.
	FailedNodes []int
}

// RunWithDrift emulates a long-lived session whose channel drifts: every
// epoch the link qualities are re-drawn around their means (and optionally
// forwarders fail), the protocol re-runs node selection and rate allocation
// on the new network, and the session continues. The epoch length is
// Config.Duration/Epochs minus the re-initiation overhead.
func RunWithDrift(net *topology.Network, src, dst int, build Builder, cfg Config, drift DriftConfig) (*DriftStats, error) {
	cfg = cfg.WithDefaults()
	if drift.Epochs <= 0 {
		drift.Epochs = 1
	}
	if drift.Jitter < 0 || drift.Jitter >= 1 {
		return nil, fmt.Errorf("protocol: drift jitter %v outside [0, 1)", drift.Jitter)
	}
	epochWall := cfg.Duration / float64(drift.Epochs)
	if drift.ReinitOverhead >= epochWall {
		return nil, fmt.Errorf("protocol: re-initiation overhead %.1fs exceeds epoch length %.1fs",
			drift.ReinitOverhead, epochWall)
	}
	rng := rand.New(rand.NewSource(drift.Seed))

	out := &DriftStats{Reinits: drift.Epochs}
	current := net
	decodedBytes := 0.0
	for epoch := 0; epoch < drift.Epochs; epoch++ {
		if epoch > 0 {
			perturbed, err := current.PerturbQuality(drift.Seed+int64(epoch)*101, drift.Jitter)
			if err != nil {
				return nil, err
			}
			current = perturbed
		}
		if drift.FailuresPerEpoch > 0 && epoch > 0 {
			victims, err := pickVictims(current, src, dst, drift.FailuresPerEpoch, rng)
			if err == nil && len(victims) > 0 {
				current, err = current.WithoutNodes(victims...)
				if err != nil {
					return nil, err
				}
				out.FailedNodes = append(out.FailedNodes, victims...)
			}
		}

		epochCfg := cfg
		epochCfg.Duration = epochWall - drift.ReinitOverhead
		epochCfg.Seed = cfg.Seed + int64(epoch)*7919
		st, err := Run(current, src, dst, build, epochCfg)
		if err != nil {
			var unreach *core.ErrUnreachable
			if errors.As(err, &unreach) {
				// The failures cut the session off for this epoch; it
				// retries after the next re-initiation.
				out.PerEpoch = append(out.PerEpoch, nil)
				out.UnreachableEpochs++
				continue
			}
			return nil, fmt.Errorf("protocol: drift epoch %d: %w", epoch, err)
		}
		out.PerEpoch = append(out.PerEpoch, st)
		decodedBytes += st.Throughput * st.Duration
	}
	if cfg.Duration > 0 {
		out.Throughput = decodedBytes / cfg.Duration
	}
	return out, nil
}

// pickVictims chooses forwarders of the current selected subgraph to kill,
// sparing the endpoints.
func pickVictims(net *topology.Network, src, dst, n int, rng *rand.Rand) ([]int, error) {
	sg, err := core.SelectNodes(net, src, dst)
	if err != nil {
		return nil, err
	}
	var candidates []int
	for local, id := range sg.Nodes {
		if local == sg.Src || local == sg.Dst {
			continue
		}
		candidates = append(candidates, id)
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if n > len(candidates) {
		n = len(candidates)
	}
	return candidates[:n], nil
}
