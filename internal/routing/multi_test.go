package routing

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/protocol"
	"omnc/internal/report"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// twoFlows hosts two sessions through shared middle relays:
// S1(0) -> {2,3} -> T1(5), S2(1) -> {2,3} -> T2(6).
func twoFlows(t *testing.T) *topology.Network {
	t.Helper()
	p := make([][]float64, 7)
	for i := range p {
		p[i] = make([]float64, 7)
	}
	set := func(a, b int, q float64) {
		p[a][b] = q
		p[b][a] = q
	}
	set(0, 2, 0.8)
	set(0, 3, 0.6)
	set(1, 2, 0.7)
	set(1, 3, 0.8)
	set(2, 5, 0.7)
	set(3, 5, 0.6)
	set(2, 6, 0.6)
	set(3, 6, 0.8)
	set(2, 3, 0.5)
	nw, err := topology.NewExplicit(p)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestRunMultiAllProtocols runs two contending sessions under each of the
// four protocols on one shared engine; every session of every protocol must
// deliver data. This doubles as the race-detector exercise for the shared
// Env (CI runs the suite with -race).
func TestRunMultiAllProtocols(t *testing.T) {
	nw := twoFlows(t)
	eps := []protocol.Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}
	protos := []protocol.Protocol{
		protocol.OMNC(core.Options{}),
		protocol.NewProtocol("more", MORE()),
		protocol.NewProtocol("oldmore", OldMORE()),
		protocol.ETX(),
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := fastConfig(31)
			cfg.Duration = 300
			cs, err := protocol.RunMulti(nw, eps, proto, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(cs.PerSession) != 2 {
				t.Fatalf("sessions = %d", len(cs.PerSession))
			}
			for i, st := range cs.PerSession {
				if st.Policy != proto.Name() {
					t.Fatalf("session %d policy = %q, want %q", i, st.Policy, proto.Name())
				}
				if st.Throughput <= 0 {
					t.Fatalf("session %d delivered nothing", i)
				}
			}
			if cs.AggregateThroughput <= 0 {
				t.Fatal("aggregate throughput zero")
			}
			if cs.JainFairness <= 0 || cs.JainFairness > 1 {
				t.Fatalf("Jain index = %v outside (0,1]", cs.JainFairness)
			}
		})
	}
}

// TestRunMatchesRunMultiOfOne: one session run exclusively (Run) and as the
// only session of RunMulti sees the same channel and counts Fig. 4's
// utilities by one rule, so every statistic and the report must agree —
// except the queue figures, which shared placement leaves to the channel.
func TestRunMatchesRunMultiOfOne(t *testing.T) {
	protos := []protocol.Protocol{
		protocol.OMNC(core.Options{}),
		protocol.NewProtocol("more", MORE()),
		protocol.NewProtocol("oldmore", OldMORE()),
		protocol.ETX(),
	}
	for seed := int64(5); seed <= 8; seed++ {
		nw, err := topology.Generate(topology.Config{Nodes: 40, Density: 6, PHY: topology.DefaultPHY(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ep := smallSession(t, nw)
		var others []int
		for n := 0; n < nw.Size(); n++ {
			if n != ep.Src && n != ep.Dst {
				others = append(others, n)
			}
		}
		faulted, err := faults.RandomPlan(faults.RandomPlanConfig{Nodes: others, Horizon: 40, CrashRate: 0.1, MeanDowntime: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		drifted := &faults.Plan{Seed: faulted.Seed, Events: append([]faults.Event{
			{At: 7, Kind: faults.QualityDrift, Jitter: 0.3, Duration: 0.5},
			{At: 21, Kind: faults.QualityDrift, Jitter: 0.2},
		}, faulted.Events...)}
		sort.SliceStable(drifted.Events, func(i, j int) bool { return drifted.Events[i].At < drifted.Events[j].At })
		plans := []struct {
			name string
			plan *faults.Plan
		}{{"none", nil}, {"faulted", faulted}, {"drifted", drifted}}

		for _, pl := range plans {
			for _, mac := range []struct {
				name string
				mode sim.Mode
			}{{"oracle", sim.ModeOracle}, {"csma", sim.ModeCSMA}} {
				for _, proto := range protos {
					cfg := protocol.Config{
						Coding:        coding.Params{GenerationSize: 8, BlockSize: 4},
						AirPacketSize: 8 + 1024,
						Capacity:      2e4,
						Duration:      60,
						Seed:          seed,
						MAC:           mac.mode,
						Faults:        pl.plan,
						Report:        true,
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, pl.name, mac.name, proto.Name())
					t.Run(name, func(t *testing.T) {
						solo, soloErr := proto.Run(nw, ep.Src, ep.Dst, cfg)
						ms, err := protocol.RunMulti(nw, []protocol.Endpoints{ep}, proto, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if soloErr != nil {
							if ms.SessionErrors == nil || ms.SessionErrors[0].Error() != soloErr.Error() {
								t.Fatalf("Run failed with %v, RunMulti session errors %v", soloErr, ms.SessionErrors)
							}
							return
						}
						want, got := *solo, *ms.PerSession[0]
						wantRep, gotRep := withoutQueues(want.Report), withoutQueues(got.Report)
						want.MeanQueue, want.QueuePerNode, want.Report = 0, nil, nil
						got.Report = nil
						if !reflect.DeepEqual(want, got) {
							t.Errorf("stats differ:\n   Run: %+v\nRunMulti: %+v", want, got)
						}
						if !reflect.DeepEqual(wantRep, gotRep) {
							t.Errorf("reports differ:\n   Run: %+v\nRunMulti: %+v", wantRep, gotRep)
						}
					})
				}
			}
		}
	}
}

// smallSession picks the first endpoint pair whose forwarder subgraph has 4
// to 10 nodes: multipath, yet quick to emulate.
func smallSession(t *testing.T, nw *topology.Network) protocol.Endpoints {
	t.Helper()
	for src := 0; src < nw.Size(); src++ {
		for dst := 0; dst < nw.Size(); dst++ {
			if dst == src {
				continue
			}
			if sg, err := core.SelectNodes(nw, src, dst); err == nil && sg.Size() >= 4 && sg.Size() <= 10 {
				return protocol.Endpoints{Src: src, Dst: dst}
			}
		}
	}
	t.Fatal("no suitable session in the deployment")
	return protocol.Endpoints{}
}

// withoutQueues copies a report with its queue parts cleared: shared
// placement has no per-session queue.
func withoutQueues(r *report.Report) report.Report {
	out := *r
	out.QueueLength = nil
	out.Nodes = append([]report.NodeCounters(nil), r.Nodes...)
	for i := range out.Nodes {
		out.Nodes[i].MeanQueue = 0
	}
	return out
}
