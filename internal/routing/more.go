// Package routing implements the policy builders of the two coded baselines
// the paper evaluates OMNC against (Sec. 5): MORE (SIGCOMM'07) and its
// technical-report precursor oldMORE built on the min-cost formulation of
// Lun et al. Both run on the coded session runtime of internal/protocol —
// the paper likewise runs all coding protocols on shared encoding/decoding
// modules. The third baseline, best-path routing on the ETX metric, is a
// data plane of that runtime's session shell (protocol.ETX).
package routing

import (
	"fmt"
	"math"
	"sort"

	"omnc/internal/core"
	"omnc/internal/protocol"
)

// MOREPlan is the outcome of MORE's centralized heuristic: per-node expected
// transmission counts and the TX-credit increments that drive forwarding.
type MOREPlan struct {
	// Z[i] is the expected number of transmissions local node i makes per
	// source packet.
	Z []float64
	// Credit[i] is the TX credit a forwarder gains per packet heard from
	// upstream.
	Credit []float64
}

// ComputeMOREPlan runs MORE's expected-transmission-count heuristic on a
// selected subgraph. Nodes are ordered by ETX distance to the destination;
// a packet travelling from node i is charged to the closest downstream
// neighbour that hears it, and node i must transmit until some downstream
// neighbour hears (z_i = L_i / (1 - prod(1-p))). The heuristic is "oblivious
// of the channel status" (Sec. 5) — it fixes how many packets to send, not
// when the channel can carry them, which is exactly the congestion blind
// spot OMNC's Fig. 3 exposes.
func ComputeMOREPlan(sg *core.Subgraph) (*MOREPlan, error) {
	k := sg.Size()
	z := make([]float64, k)
	load := make([]float64, k) // L_i: expected packets node i must forward

	// Downstream neighbours of each node, closest to the destination first.
	downstream := make([][]core.Link, k)
	for i := 0; i < k; i++ {
		for _, li := range sg.Out(i) {
			downstream[i] = append(downstream[i], sg.Links[li])
		}
		links := downstream[i]
		sort.Slice(links, func(a, b int) bool {
			return sg.ETXDist[links[a].To] < sg.ETXDist[links[b].To]
		})
	}

	// Process nodes farthest-from-destination first (the source is the
	// farthest by construction of node selection).
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return sg.ETXDist[order[a]] > sg.ETXDist[order[b]]
	})

	load[sg.Src] = 1 // one unit: per source packet
	for _, i := range order {
		if i == sg.Dst || len(downstream[i]) == 0 {
			continue
		}
		// Probability at least one downstream neighbour hears a
		// transmission.
		miss := 1.0
		for _, l := range downstream[i] {
			miss *= 1 - l.Prob
		}
		hear := 1 - miss
		if hear <= 0 {
			continue
		}
		z[i] = load[i] / hear
		// Charge each transmission to the closest neighbour that heard it:
		// neighbour j accrues p_ij * prod over closer neighbours (1-p_ik).
		closerMiss := 1.0
		for _, l := range downstream[i] {
			load[l.To] += z[i] * l.Prob * closerMiss
			closerMiss *= 1 - l.Prob
		}
	}
	if z[sg.Src] <= 0 {
		return nil, fmt.Errorf("routing: MORE heuristic found no usable downstream for the source")
	}

	// TX credit: transmissions owed per packet heard from upstream,
	// credit_i = z_i / (expected receptions from upstream per source
	// packet).
	credit := make([]float64, k)
	recv := make([]float64, k)
	for _, l := range sg.Links {
		recv[l.To] += z[l.From] * l.Prob
	}
	for i := 0; i < k; i++ {
		if i == sg.Src || i == sg.Dst || recv[i] <= 0 {
			continue
		}
		credit[i] = z[i] / recv[i]
	}
	return &MOREPlan{Z: z, Credit: credit}, nil
}

// MORE returns the policy builder for the MORE baseline: the heuristic's TX
// credits drive forwarding, every reception from upstream earns credit, and
// nothing limits transmission rates — nodes contend for whatever the MAC
// gives them.
func MORE() protocol.Builder {
	return func(sg *core.Subgraph, cfg protocol.Config) (*protocol.Policy, error) {
		plan, err := ComputeMOREPlan(sg)
		if err != nil {
			return nil, err
		}
		clampCredits(plan.Credit)
		return &protocol.Policy{
			Name:                 "more",
			Caps:                 protocol.UncappedRates(sg.Size()),
			Credit:               plan.Credit,
			CreditOnAnyReception: true,
		}, nil
	}
}

// maxCredit guards against degenerate credit explosions on near-dead links.
const maxCredit = 64

func clampCredits(credit []float64) {
	for i, c := range credit {
		if math.IsInf(c, 1) || c > maxCredit {
			credit[i] = maxCredit
		}
	}
}
