package protocol

import "omnc/internal/report"

// sessionObs is the coded runtime's report collector, allocated only when
// Config.Report is set (nil otherwise, mirroring the MAC's measurement
// overlay). Every hook is an index increment at a site that already records
// the same event into the trace, so enabled-run counters reconcile exactly
// against trace.Buffer counts and disabled runs pay one nil check.
type sessionObs struct {
	rx      []int64 // per local node: session receptions accepted
	innov   []int64 // per local node: innovative receptions
	discard []int64 // per local node: non-innovative/expired discards
	rank    []report.RankPoint
	faults  report.FaultSummary
}

func newSessionObs(n int) *sessionObs {
	return &sessionObs{
		rx:      make([]int64, n),
		innov:   make([]int64, n),
		discard: make([]int64, n),
	}
}

// buildReport assembles the session's Report at Finish time from the
// collector, the MAC's measurement overlay and the session's own counters.
func (rt *runtime) buildReport(st *Stats) *report.Report {
	r := &report.Report{
		Protocol:           rt.pol.Name,
		Seed:               rt.cfg.Seed,
		Duration:           st.Duration,
		GenerationsDecoded: st.GenerationsDecoded,
		Throughput:         st.Throughput,
		RankTimeline:       rt.obs.rank,
		Faults:             rt.obs.faults,
	}
	if rt.env.Faults != nil {
		r.Faults.Epochs = rt.env.Faults.Epoch()
	}

	lat := report.NewHistogram(report.DefaultLatencyBounds...)
	for _, l := range rt.latencies {
		lat.Observe(l)
	}
	r.GenerationLatency = lat

	r.Nodes = make([]report.NodeCounters, rt.sg.Size())
	for i, n := range rt.nodes {
		nc := report.NodeCounters{
			Node:           i,
			TxFrames:       n.frames,
			RxPackets:      rt.obs.rx[i],
			Innovative:     rt.obs.innov[i],
			Discarded:      rt.obs.discard[i],
			AirtimeSeconds: rt.mac.Airtime(n.macID),
		}
		if !rt.shared {
			nc.MeanQueue = rt.mac.TimeAvgQueue(i)
		}
		r.Nodes[i] = nc
	}

	if rt.shared {
		for li, l := range rt.sg.Links {
			if rt.linkRx[li] > 0 {
				r.Links = append(r.Links, report.LinkDelivery{From: l.From, To: l.To, Delivered: rt.linkRx[li]})
			}
		}
	} else {
		for _, l := range rt.sg.Links {
			if d := rt.mac.Delivered(l.From, l.To); d > 0 {
				r.Links = append(r.Links, report.LinkDelivery{From: l.From, To: l.To, Delivered: d})
			}
		}
	}

	var tokenSum float64
	var tokenN int64
	for _, n := range rt.nodes {
		r.MAC.FramesSent += rt.mac.FramesSent(n.macID)
		r.MAC.BytesSent += rt.mac.BytesSent(n.macID)
		r.MAC.AirtimeSeconds += rt.mac.Airtime(n.macID)
		s, c := rt.mac.TokenObservations(n.macID)
		tokenSum += s
		tokenN += c
	}
	if tokenN > 0 {
		r.MAC.MeanTokenOccupancy = tokenSum / float64(tokenN)
	}
	if !rt.shared {
		// The queue histogram aggregates the private MAC's sampler; on a
		// shared channel the queues belong to physical nodes, not sessions.
		r.QueueLength = rt.mac.QueueHistogram()
	}
	return r
}
