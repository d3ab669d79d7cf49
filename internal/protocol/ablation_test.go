package protocol

import (
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// AblationTopologies are the three 150-node deployments the MAC-regime
// ablations run on. It, AblationSession and AblationConfig are exported for
// TestAblationPayloadFidelity, which must live in package protocol_test.
var AblationTopologies = []int64{21, 22, 23}

// AblationSession returns the network of the given seed and its first
// session from node 0 that selects at least eight nodes.
func AblationSession(t *testing.T, topoSeed int64) (nw *topology.Network, src, dst int) {
	t.Helper()
	nw, err := topology.Generate(topology.Config{Nodes: 150, Density: 6, Seed: topoSeed})
	if err != nil {
		t.Fatal(err)
	}
	for dst := 1; dst < nw.Size(); dst++ {
		if sg, err := core.SelectNodes(nw, 0, dst); err == nil && sg.Size() >= 8 {
			return nw, 0, dst
		}
	}
	t.Fatalf("topology %d: no session from node 0 selects 8 nodes", topoSeed)
	return nil, 0, 0
}

// AblationConfig is the quick-scale session: rank-fidelity payloads, the
// paper's air frames, and a horizon long enough to decode several
// generations under CSMA.
func AblationConfig(seed int64, mac sim.Mode) Config {
	return Config{
		Coding:        coding.Params{GenerationSize: 40, BlockSize: 8},
		AirPacketSize: 40 + 1024,
		Capacity:      2e4,
		Duration:      600,
		Seed:          seed,
		MAC:           mac,
	}
}

// TestAblationUtilization pins the contention margin CSMAUtilization sets.
// Under CSMA the rescaled OMNC goodput peaks strictly inside (0, 1]: a small
// budget starves the session and the full budget jams hidden-terminal
// receivers. Measured mean B/s over seeds 1-4 for eta 0.25/0.5/0.75/1.0:
//
//	topology 21: 204.8 / 341.3 / 290.1 /  85.3
//	topology 22: 341.3 / 494.9 / 307.2 /  68.3
//	topology 23: 273.1 / 477.9 / 546.1 / 477.9
//
// eta = 0.5 has the largest sum (1314 B/s); the full budget sums to 631.
func TestAblationUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("utilization sweep skipped in -short mode")
	}
	t.Parallel()
	etas := []float64{0.25, 0.5, 0.75, 1.0}
	at := -1
	for i, eta := range etas {
		if eta == CSMAUtilization {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("CSMAUtilization %v is not on the swept grid %v", CSMAUtilization, etas)
	}
	const seeds = 4
	sums := make([]float64, len(etas))
	for _, topoSeed := range AblationTopologies {
		nw, src, dst := AblationSession(t, topoSeed)
		means := make([]float64, len(etas))
		for i, eta := range etas {
			for seed := int64(1); seed <= seeds; seed++ {
				st, err := Run(nw, src, dst, omncAtUtilization(core.Options{}, eta), AblationConfig(seed, sim.ModeCSMA))
				if err != nil {
					t.Fatal(err)
				}
				means[i] += st.Throughput / seeds
			}
			sums[i] += means[i]
		}
		t.Logf("topology %d: B/s at eta %v = %.1f", topoSeed, etas, means)
		best := max(means[1], means[2])
		if best <= means[0] || best <= means[len(etas)-1] {
			t.Errorf("topology %d: no interior peak: %.1f", topoSeed, means)
		}
	}
	best := 0.0
	for _, s := range sums {
		best = max(best, s)
	}
	if sums[at] < 0.8*best {
		t.Errorf("CSMAUtilization %v sums to %.1f B/s, below 0.8 x the best eta's %.1f (sums %.1f)",
			CSMAUtilization, sums[at], best, sums)
	}
}

// TestAblationMACMode pins the MAC-regime gap: the same OMNC session under
// the paper's oracle scheduler outruns the CSMA contention model on every
// topology. Measured oracle/CSMA B/s: 1160.5/341.3 (3.4x), 2048.0/477.9
// (4.3x), 1570.1/477.9 (3.3x).
func TestAblationMACMode(t *testing.T) {
	t.Parallel()
	for _, topoSeed := range AblationTopologies {
		nw, src, dst := AblationSession(t, topoSeed)
		var tp [2]float64
		for i, mode := range []sim.Mode{sim.ModeOracle, sim.ModeCSMA} {
			st, err := Run(nw, src, dst, OMNC(core.Options{}), AblationConfig(6, mode))
			if err != nil {
				t.Fatal(err)
			}
			tp[i] = st.Throughput
		}
		t.Logf("topology %d: oracle %.1f B/s, csma %.1f B/s", topoSeed, tp[0], tp[1])
		if tp[0] <= tp[1] {
			t.Errorf("topology %d: oracle %.1f B/s does not beat csma %.1f B/s", topoSeed, tp[0], tp[1])
		}
	}
}
