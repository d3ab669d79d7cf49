package omnc_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"omnc"
	"omnc/internal/experiments"
	"omnc/internal/seedmix"
)

// The chaos layer throws seeded random fault plans at every protocol and
// checks the invariants the fault subsystem promises:
//
//   - every run terminates, and the only abnormal outcome is a typed
//     ErrDestinationDown when the plan kills the destination for good;
//   - ErrDestinationDown occurs exactly when the plan predicts it;
//   - faults never create throughput beyond what the fault-free network
//     supports: a faulted run stays below the centralized LP optimum of the
//     full forwarder graph (plus slack). The bound is the LP optimum rather
//     than the protocol's own fault-free run because mid-session re-solves
//     on a masked subgraph can legitimately beat the initial allocation —
//     the distributed solver is approximate, and concentrating its budget
//     on the surviving path sometimes lands nearer the optimum than the
//     full-graph solution did;
//   - identical seeds give bit-identical statistics, re-run to re-run.
//
// Everything here must also pass under -race (the CI chaos smoke runs a
// subset with the race detector on).

// chaosPlans is how many random plans each protocol endures.
func chaosPlans(t *testing.T) int {
	if testing.Short() {
		return 25
	}
	return 100
}

// chaosSession is the shared scenario: one lossy deployment, one placed
// session, short generations so a 10-second horizon decodes plenty.
type chaosSession struct {
	nw       *omnc.Network
	src, dst int
	nodes    []int    // crash candidates: the forwarder set, src excluded
	links    [][2]int // episode candidates: the forwarder links, deduped
}

func newChaosSession(t *testing.T, seed int64) *chaosSession {
	t.Helper()
	nw, err := omnc.GenerateNetwork(40, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Scan for a routable pair a few hops apart; deterministic in the seed.
	for src := 0; src < nw.Size(); src++ {
		for dst := src + 1; dst < nw.Size(); dst++ {
			sg, err := omnc.SelectForwarders(nw, src, dst)
			if err != nil || sg.Size() < 5 || sg.Size() > 12 {
				continue
			}
			cs := &chaosSession{nw: nw, src: src, dst: dst}
			for _, nid := range sg.Nodes {
				if nid != src {
					cs.nodes = append(cs.nodes, nid) // dst stays: ErrDestinationDown must trigger
				}
			}
			seen := make(map[[2]int]bool)
			for _, l := range sg.Links {
				a, b := sg.Nodes[l.From], sg.Nodes[l.To]
				if a > b {
					a, b = b, a
				}
				if !seen[[2]int{a, b}] {
					seen[[2]int{a, b}] = true
					cs.links = append(cs.links, [2]int{a, b})
				}
			}
			return cs
		}
	}
	t.Fatal("no suitable session in the deployment")
	return nil
}

func chaosConfig(seed int64, plan *omnc.FaultPlan) omnc.SessionConfig {
	return omnc.SessionConfig{
		Coding:        omnc.CodingParams{GenerationSize: 8, BlockSize: 4},
		AirPacketSize: 8 + 1024,
		Capacity:      2e4,
		Duration:      10,
		Seed:          seed,
		Faults:        plan,
	}
}

func chaosProtocols() map[string]omnc.Protocol {
	return map[string]omnc.Protocol{
		"omnc":    omnc.OMNC(omnc.RateOptions{}),
		"more":    omnc.MORE(),
		"oldmore": omnc.OldMORE(),
		"etx":     omnc.ETX(),
	}
}

// planKillsDst reports whether the plan leaves the destination down at the
// end — exactly the condition under which a session must finish with
// ErrDestinationDown.
func planKillsDst(plan *omnc.FaultPlan, dst int) bool {
	down := false
	for _, ev := range plan.Events {
		switch {
		case ev.Kind == omnc.FaultNodeCrash && ev.Node == dst:
			down = true
		case ev.Kind == omnc.FaultNodeRecover && ev.Node == dst:
			down = false
		}
	}
	return down
}

// TestChaosRandomPlans is the core property test: 100+ seeded random fault
// plans per protocol (25 under -short), every one checked for termination,
// typed failure, bounded throughput and (on a subset) bit-identical replay.
func TestChaosRandomPlans(t *testing.T) {
	cs := newChaosSession(t, 5)
	plans := chaosPlans(t)
	sg, err := omnc.SelectForwarders(cs.nw, cs.src, cs.dst)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := omnc.SolveOptimalRates(sg, 2e4)
	if err != nil {
		t.Fatal(err)
	}
	for name, proto := range chaosProtocols() {
		t.Run(name, func(t *testing.T) {
			base, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, chaosConfig(11, nil))
			if err != nil {
				t.Fatalf("fault-free baseline: %v", err)
			}
			// Faults restrict the network, so no faulted run may beat the
			// unrestricted optimum. One generation of decoded payload per
			// horizon second covers quantization at the horizon edge.
			limit := lp.Gamma
			if base.Throughput > limit {
				limit = base.Throughput
			}
			slack := float64(8*1024) / 10
			downs := 0
			for i := 0; i < plans; i++ {
				plan, err := omnc.RandomFaultPlan(omnc.RandomFaultPlanConfig{
					Nodes:        cs.nodes,
					Links:        cs.links,
					Horizon:      10,
					CrashRate:    0.15,
					MeanDowntime: 3,
					FlapRate:     0.1,
					BurstRate:    0.1,
					BadFactor:    0.1,
					Seed:         seedmix.Derive(1000, int64(i)),
				})
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				st, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, chaosConfig(11, plan))
				expectDown := planKillsDst(plan, cs.dst)
				if expectDown {
					downs++
					if !errors.Is(err, omnc.ErrDestinationDown) {
						t.Fatalf("plan %d kills the destination but err = %v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				if st.Throughput > limit*1.05+slack {
					t.Fatalf("plan %d: faulted throughput %.0f exceeds the fault-free bound %.0f",
						i, st.Throughput, limit)
				}
				// NodeUtility is the fraction of selected nodes that carried
				// traffic; with the destination (which never transmits)
				// excluded from the denominator it is a true ratio in [0, 1]
				// no matter which forwarders a fault plan silences.
				if st.NodeUtility < 0 || st.NodeUtility > 1 {
					t.Fatalf("plan %d: NodeUtility %v outside [0, 1]", i, st.NodeUtility)
				}
				if i%10 == 0 {
					again, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, chaosConfig(11, plan))
					if err != nil {
						t.Fatalf("plan %d replay: %v", i, err)
					}
					if !reflect.DeepEqual(st, again) {
						t.Fatalf("plan %d: replay drifted:\n got %+v\nwant %+v", i, again, st)
					}
				}
			}
			if downs == 0 {
				t.Error("no plan ever killed the destination; the typed-error path went unexercised")
			}
		})
	}
}

// TestChaosDriftCrashFlapReplay is the replay check on a hand-written plan
// that stacks the fault kinds on one another: a forwarder crashes inside a
// drift's dead time and recovers after it, a flap opens on a drifted link and
// closes after a second drift has moved the link again, and a burst rides the
// twice-drifted qualities. Every protocol must terminate having decoded
// something, tally each fault once, and replay bit-identically.
func TestChaosDriftCrashFlapReplay(t *testing.T) {
	cs := newChaosSession(t, 5)
	victim := cs.nodes[0]
	if victim == cs.dst {
		victim = cs.nodes[1]
	}
	flap, burst := cs.links[0], cs.links[len(cs.links)-1]
	plan := &omnc.FaultPlan{Seed: 77, Events: []omnc.FaultEvent{
		driftEvent(1, 0.3, 1),
		{At: 1.5, Kind: omnc.FaultNodeCrash, Node: victim},
		{At: 3, Kind: omnc.FaultLinkFlap, From: flap[0], To: flap[1], Duration: 3},
		{At: 3.5, Kind: omnc.FaultNodeRecover, Node: victim},
		driftEvent(4, 0.4, 0.5),
		{At: 6.5, Kind: omnc.FaultBurstLoss, From: burst[0], To: burst[1], Duration: 2, BadFactor: 0.1},
	}}
	for name, proto := range chaosProtocols() {
		cfg := chaosConfig(11, plan)
		cfg.Report = true
		st, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.GenerationsDecoded == 0 {
			t.Errorf("%s: decoded nothing", name)
		}
		if f := st.Report.Faults; f.Drifts != 2 || f.Crashes != 1 || f.Recoveries != 1 || f.LinkFlaps != 1 || f.Bursts != 1 {
			t.Errorf("%s: fault tally %+v", name, f)
		}
		again, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Errorf("%s: replay drifted:\n got %+v\nwant %+v", name, again, st)
		}
	}
}

// TestChaosFaultFreeBitIdentity pins the subsystem's zero-cost contract: a
// nil plan and an installed-but-empty plan produce byte-identical statistics
// for every protocol — installing the injector must not perturb a single RNG
// draw or event timestamp.
func TestChaosFaultFreeBitIdentity(t *testing.T) {
	cs := newChaosSession(t, 5)
	for name, proto := range chaosProtocols() {
		bare, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, chaosConfig(17, nil))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		empty, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, chaosConfig(17, &omnc.FaultPlan{}))
		if err != nil {
			t.Fatalf("%s with empty plan: %v", name, err)
		}
		if !reflect.DeepEqual(bare, empty) {
			t.Errorf("%s: empty fault plan perturbed the run:\n nil:   %+v\n empty: %+v", name, bare, empty)
		}
	}
}

// TestChaosSchemes extends the chaos coverage across the coding-scheme
// strategy layer: every scheme endures random fault plans (at least one
// each, several in full mode) under the same invariants as
// TestChaosRandomPlans — termination, typed destination-death errors, and
// bit-identical replay. Crash-released ForwardBuffer stores and RS shard
// emissions thus meet node churn, not just clean sessions.
func TestChaosSchemes(t *testing.T) {
	cs := newChaosSession(t, 5)
	plans := 2
	if !testing.Short() {
		plans = 8
	}
	proto := omnc.OMNC(omnc.RateOptions{})
	for _, scheme := range []omnc.Scheme{omnc.SchemeRLNC, omnc.SchemeRLNCE2E, omnc.SchemeRS} {
		t.Run(scheme.String(), func(t *testing.T) {
			for i := 0; i < plans; i++ {
				plan, err := omnc.RandomFaultPlan(omnc.RandomFaultPlanConfig{
					Nodes:        cs.nodes,
					Links:        cs.links,
					Horizon:      10,
					CrashRate:    0.15,
					MeanDowntime: 3,
					FlapRate:     0.1,
					BurstRate:    0.1,
					BadFactor:    0.1,
					Seed:         seedmix.Derive(2000, int64(int(scheme)*plans+i)),
				})
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				cfg := chaosConfig(13, plan)
				cfg.Scheme = scheme
				cfg.Redundancy = 2.5
				st, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
				if planKillsDst(plan, cs.dst) {
					if !errors.Is(err, omnc.ErrDestinationDown) {
						t.Fatalf("plan %d kills the destination but err = %v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				again, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
				if err != nil {
					t.Fatalf("plan %d replay: %v", i, err)
				}
				if !reflect.DeepEqual(st, again) {
					t.Fatalf("plan %d: replay drifted:\n got %+v\nwant %+v", i, again, st)
				}
			}
		})
	}
}

// TestChaosWorkersInvariant re-runs a small fault-churn experiment serially
// and with four workers: the aggregated points must match exactly, because
// every cell's plan and trial seed derive from its index, not from
// scheduling order.
func TestChaosWorkersInvariant(t *testing.T) {
	run := func(workers int) *experiments.FaultChurn {
		t.Helper()
		res, err := experiments.RunFaultChurn(experiments.FaultsConfig{
			Base: experiments.Config{
				Nodes: 60, Density: 6, Sessions: 2, MinHops: 2, MaxHops: 6,
				Duration: 20, CBRRate: 1e4, Seed: 7, Workers: workers,
			},
			ChurnRates: []float64{0, 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Fatalf("worker count changed the results:\n 1: %+v\n 4: %+v", serial.Points, parallel.Points)
	}
}

// TestChaosMultiSessionRace drives several contending sessions through
// crash/recover churn across parallel trials — under -race this extends the
// pool-aliasing coverage to fault-released packet ownership (a crashed
// node's parked frames return to the arena while other trials are running).
// Each trial also replays itself and demands bit-identical aggregates.
func TestChaosMultiSessionRace(t *testing.T) {
	nw, err := omnc.GenerateNetwork(40, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Two fixed sessions a few hops apart, endpoints protected from crashes.
	sessions := findMultiSessions(t, nw, 2)
	protect := make(map[int]bool)
	for _, ep := range sessions {
		protect[ep.Src] = true
		protect[ep.Dst] = true
	}
	var candidates []int
	for n := 0; n < nw.Size(); n++ {
		if !protect[n] {
			candidates = append(candidates, n)
		}
	}
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			plan, err := omnc.RandomFaultPlan(omnc.RandomFaultPlanConfig{
				Nodes:        candidates,
				Horizon:      10,
				CrashRate:    0.4,
				MeanDowntime: 2,
				Seed:         seedmix.Derive(2000, int64(trial)),
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := chaosConfig(seedmix.Derive(3000, int64(trial)), plan)
			first, err := omnc.RunMulti(nw, sessions, omnc.OMNC(omnc.RateOptions{}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, serr := range first.SessionErrors {
				if serr != nil {
					t.Fatalf("session %d failed despite protected endpoints: %v", i, serr)
				}
			}
			again, err := omnc.RunMulti(nw, sessions, omnc.OMNC(omnc.RateOptions{}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("multi-session replay drifted:\n got %+v\nwant %+v", again, first)
			}
		})
	}
}

// findMultiSessions picks n disjoint routable endpoint pairs.
func findMultiSessions(t *testing.T, nw *omnc.Network, n int) []omnc.Endpoints {
	t.Helper()
	var out []omnc.Endpoints
	used := make(map[int]bool)
	for src := 0; src < nw.Size() && len(out) < n; src++ {
		if used[src] {
			continue
		}
		for dst := 0; dst < nw.Size(); dst++ {
			if dst == src || used[dst] {
				continue
			}
			sg, err := omnc.SelectForwarders(nw, src, dst)
			if err != nil || sg.Size() < 4 || sg.Size() > 10 {
				continue
			}
			out = append(out, omnc.Endpoints{Src: src, Dst: dst})
			used[src], used[dst] = true, true
			break
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d of %d sessions", len(out), n)
	}
	return out
}
