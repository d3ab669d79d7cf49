package topology

import (
	"fmt"
	"math/rand"
)

// PerturbQuality returns a copy of the network whose link reception
// probabilities are multiplied by independent factors drawn uniformly from
// [1-jitter, 1+jitter] (clamped to (0, 1]), modelling the link-quality
// variation that Sec. 4 of the paper discusses: "in cases where link
// qualities change significantly, the node selection and rate allocation
// have to be re-initiated". Link symmetry and the neighbour geometry are
// preserved — quality drifts, the deployment does not move.
func (nw *Network) PerturbQuality(seed int64, jitter float64) (*Network, error) {
	if jitter < 0 || jitter >= 1 {
		return nil, fmt.Errorf("topology: jitter %v outside [0, 1)", jitter)
	}
	rng := rand.New(rand.NewSource(seed))
	out := nw.clone()
	n := nw.Size()
	for i := 0; i < n; i++ {
		for _, j := range nw.neighbors[i] {
			if j < i {
				continue // perturb each undirected pair once
			}
			factor := 1 + (rng.Float64()*2-1)*jitter
			p := nw.prob[i][j] * factor
			if p <= 0.01 {
				p = 0.01
			}
			if p > 1 {
				p = 1
			}
			out.prob[i][j] = p
			out.prob[j][i] = p
		}
	}
	return out, nil
}

// clone deep-copies the network.
func (nw *Network) clone() *Network {
	out := &Network{
		phy:       nw.phy,
		positions: append([]Point(nil), nw.positions...),
		neighbors: make([][]int, nw.Size()),
		prob:      make([][]float64, nw.Size()),
	}
	for i := range nw.neighbors {
		out.neighbors[i] = append([]int(nil), nw.neighbors[i]...)
		out.prob[i] = append([]float64(nil), nw.prob[i]...)
	}
	return out
}
