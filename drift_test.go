package omnc_test

import (
	"math"
	"testing"

	"omnc"
	"omnc/internal/trace"
)

// Link-quality drift at the session level: a drift is a fault-plan event like
// any other, so every protocol — and the joint multi-session controller —
// must ride it out on the one epoch pipeline: fall silent for the dead time,
// re-plan exactly once when it ends, and see the new qualities on the air.

func driftEvent(at, jitter, dur float64) omnc.FaultEvent {
	return omnc.FaultEvent{At: at, Kind: omnc.FaultQualityDrift, Jitter: jitter, Duration: dur}
}

// TestDriftSessionsReplanOncePerDrift: three drifts are six epochs (each
// drift and the end of its dead time), three drift counts and exactly three
// re-plans, in the report and in the trace alike.
func TestDriftSessionsReplanOncePerDrift(t *testing.T) {
	cs := newChaosSession(t, 5)
	plan := &omnc.FaultPlan{Seed: 9, Events: []omnc.FaultEvent{
		driftEvent(2, 0.3, 0.5),
		driftEvent(5, 0.3, 0), // no dead time: silent and re-planned in the same instant
		driftEvent(7, 0.1, 1),
	}}
	reconcile := func(t *testing.T, st *omnc.SessionStats) {
		t.Helper()
		if st.GenerationsDecoded == 0 {
			t.Error("decoded nothing under drift")
		}
		f := st.Report.Faults
		if f.Drifts != 3 || f.Replans != 3 || f.Epochs != 6 {
			t.Errorf("report: %d drifts, %d replans, %d epochs; want 3, 3, 6", f.Drifts, f.Replans, f.Epochs)
		}
		if f.Crashes+f.Recoveries+f.LinkFlaps+f.Bursts != 0 {
			t.Errorf("a drift-only plan tallied other faults: %+v", f)
		}
	}
	for name, proto := range chaosProtocols() {
		t.Run(name, func(t *testing.T) {
			buf := omnc.NewTraceBuffer()
			cfg := chaosConfig(11, plan)
			cfg.Trace, cfg.Report = buf, true
			st, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reconcile(t, st)
			if d, r := buf.Count(trace.EventDrift), buf.Count(trace.EventReplan); d != 3 || r != 3 {
				t.Errorf("trace: %d drift events, %d replans; want 3 and 3", d, r)
			}
		})
	}
	t.Run("omnc-multi", func(t *testing.T) {
		sessions := findMultiSessions(t, cs.nw, 2)
		buf := omnc.NewTraceBuffer()
		cfg := chaosConfig(11, plan)
		cfg.Trace, cfg.Report = buf, true
		ms, err := omnc.RunMulti(cs.nw, sessions, omnc.OMNC(omnc.RateOptions{}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range ms.PerSession {
			reconcile(t, st)
		}
		// The drift is one network event; each session re-plans for itself.
		if d, r := buf.Count(trace.EventDrift), buf.Count(trace.EventReplan); d != 3 || r != 3*len(sessions) {
			t.Errorf("trace: %d drift events, %d replans; want 3 and %d", d, r, 3*len(sessions))
		}
	})
}

// TestDriftedLinksDeliverAtTheNewProbability drifts the network hard at time
// zero, so the whole session runs on the re-drawn qualities, and reads the
// MAC's delivered/sent ratio per link out of the report: it must sit at the
// drifted probability — which Plan.DriftSeed lets the test reconstruct — and
// on a strongly degraded link that is far from the nominal one. (The shared
// channel's reports count a session's accepted receptions, not MAC
// deliveries; internal/protocol checks RunMulti's MAC directly.)
func TestDriftedLinksDeliverAtTheNewProbability(t *testing.T) {
	const jitter = 0.6
	cs := newChaosSession(t, 5)
	plan := &omnc.FaultPlan{Seed: 4, Events: []omnc.FaultEvent{driftEvent(0, jitter, 0)}}
	drifted, err := cs.nw.PerturbQuality(plan.DriftSeed(0), jitter)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(11, plan)
	cfg.Duration = 400
	cfg.Report = true

	// broadcastLinks checks every well-sampled link of a coded session:
	// each frame a node broadcasts is one Bernoulli trial per out-link.
	broadcastLinks := func(t *testing.T, nodes []int, rep *omnc.Report) {
		t.Helper()
		checked, degraded := 0, 0
		for _, l := range rep.Links {
			sent := rep.Nodes[l.From].TxFrames
			if sent < 1000 {
				continue
			}
			a, b := nodes[l.From], nodes[l.To]
			ratio := float64(l.Delivered) / float64(sent)
			if math.Abs(ratio-drifted.Prob(a, b)) > 0.05 {
				t.Errorf("link %d->%d: delivered/sent %.3f, drifted probability %.3f (nominal %.3f)",
					a, b, ratio, drifted.Prob(a, b), cs.nw.Prob(a, b))
			}
			checked++
			if drifted.Prob(a, b) < 0.75*cs.nw.Prob(a, b) {
				degraded++
			}
		}
		if checked == 0 || degraded == 0 {
			t.Fatalf("%d links sampled, %d of them strongly degraded; the scenario proves nothing", checked, degraded)
		}
	}

	sg, err := omnc.SelectForwarders(cs.nw, cs.src, cs.dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"omnc", "more", "oldmore"} {
		t.Run(name, func(t *testing.T) {
			st, err := omnc.Run(cs.nw, cs.src, cs.dst, chaosProtocols()[name], cfg)
			if err != nil {
				t.Fatal(err)
			}
			broadcastLinks(t, sg.Nodes, st.Report)
		})
	}

	// ETX sends reliable unicast: a packet costs 1/(p_fwd*p_rev) attempts on
	// its hop, so the MAC's attempt total is what tracks the probability.
	t.Run("etx", func(t *testing.T) {
		st, err := omnc.Run(cs.nw, cs.src, cs.dst, omnc.ETX(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		attempts := func(nw *omnc.Network) float64 {
			sum := 0.0
			for _, l := range st.Report.Links {
				a, b := sg.Nodes[l.From], sg.Nodes[l.To]
				sum += float64(l.Delivered) / (nw.Prob(a, b) * nw.Prob(b, a))
			}
			return sum
		}
		sent := float64(st.Report.MAC.FramesSent)
		if got := attempts(drifted); math.Abs(got-sent)/sent > 0.05 {
			t.Errorf("MAC made %.0f attempts; the drifted qualities predict %.0f", sent, got)
		}
		if nominal := attempts(cs.nw); math.Abs(nominal-sent)/sent < 0.15 {
			t.Fatalf("the nominal qualities predict %.0f attempts against %.0f made; the scenario proves nothing", nominal, sent)
		}
	})
}

// TestDriftDeadTimeIsSilent: nothing is transmitted inside a drift's window,
// even when another epoch (here a crash of a forwarder) fires in it.
func TestDriftDeadTimeIsSilent(t *testing.T) {
	cs := newChaosSession(t, 5)
	victim := cs.nodes[0]
	if victim == cs.dst {
		victim = cs.nodes[1]
	}
	plan := &omnc.FaultPlan{Seed: 9, Events: []omnc.FaultEvent{
		driftEvent(3, 0.3, 2),
		{At: 4, Kind: omnc.FaultNodeCrash, Node: victim},
		{At: 4.5, Kind: omnc.FaultNodeRecover, Node: victim},
	}}
	for name, proto := range chaosProtocols() {
		if name == "etx" {
			continue // ETX traces no per-frame events
		}
		t.Run(name, func(t *testing.T) {
			buf := omnc.NewTraceBuffer()
			cfg := chaosConfig(11, plan)
			cfg.Trace, cfg.Report = buf, true
			st, err := omnc.Run(cs.nw, cs.src, cs.dst, proto, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before, inside, after := 0, 0, 0
			for _, ev := range buf.Events() {
				if ev.Type != trace.EventTx {
					continue
				}
				switch {
				case ev.Time < 3:
					before++
				case ev.Time < 5:
					inside++
				default:
					after++
				}
			}
			if before == 0 || after == 0 {
				t.Fatalf("session idle outside the window too: %d frames before, %d after", before, after)
			}
			if inside != 0 {
				t.Errorf("%d frames handed to the MAC inside the dead time", inside)
			}
			// The crash and the recovery inside the window re-plan nothing;
			// the window's end does, once.
			if f := st.Report.Faults; f.Replans != 1 || f.Crashes != 1 || f.Recoveries != 1 {
				t.Errorf("faults = %+v, want one replan, one crash, one recovery", f)
			}
		})
	}
}
