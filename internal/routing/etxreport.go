package routing

import (
	"omnc/internal/protocol"
	"omnc/internal/report"
)

// etxObs is the ETX session's report collector, nil unless Config.Report is
// set. ETX has no coding, so its report carries no generation-latency
// histogram or rank timeline — node counters, the delivery matrix, the MAC
// section and the fault summary are shared with the coded protocols.
type etxObs struct {
	faults report.FaultSummary
}

// buildReport assembles the ETX session's Report at Finish time.
func (s *etxSession) buildReport(st *protocol.Stats) *report.Report {
	r := &report.Report{
		Protocol:           st.Policy,
		Seed:               s.cfg.Seed,
		Duration:           st.Duration,
		GenerationsDecoded: st.GenerationsDecoded,
		Throughput:         st.Throughput,
		Faults:             s.obs.faults,
	}
	if s.env.Faults != nil {
		r.Faults.Epochs = s.env.Faults.Epoch()
	}

	mac := s.env.MAC
	r.Nodes = make([]report.NodeCounters, s.sg.Size())
	for i := range r.Nodes {
		nc := report.NodeCounters{
			Node:           i,
			TxFrames:       s.sentAt[i],
			RxPackets:      s.recvAt[i],
			AirtimeSeconds: mac.Airtime(s.macID(i)),
		}
		if !s.shared {
			nc.MeanQueue = mac.TimeAvgQueue(i)
		}
		r.Nodes[i] = nc
	}

	if s.shared {
		// On the shared channel per-link MAC counters aggregate every
		// session; attribute deliveries from the session's own per-hop
		// reception counts along the current path.
		for h := 0; h+1 < len(s.path); h++ {
			if d := s.recvAt[s.path[h+1]]; d > 0 {
				r.Links = append(r.Links, report.LinkDelivery{From: s.path[h], To: s.path[h+1], Delivered: d})
			}
		}
	} else {
		for _, l := range s.sg.Links {
			if d := mac.Delivered(l.From, l.To); d > 0 {
				r.Links = append(r.Links, report.LinkDelivery{From: l.From, To: l.To, Delivered: d})
			}
		}
	}

	var tokenSum float64
	var tokenN int64
	for i := 0; i < s.sg.Size(); i++ {
		id := s.macID(i)
		r.MAC.FramesSent += mac.FramesSent(id)
		r.MAC.BytesSent += mac.BytesSent(id)
		r.MAC.AirtimeSeconds += mac.Airtime(id)
		sum, n := mac.TokenObservations(id)
		tokenSum += sum
		tokenN += n
	}
	if tokenN > 0 {
		r.MAC.MeanTokenOccupancy = tokenSum / float64(tokenN)
	}
	if !s.shared {
		r.QueueLength = mac.QueueHistogram()
	}
	return r
}
