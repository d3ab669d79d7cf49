package main

import (
	"context"
)

// The layers below the protocol boundary — GF kernels, coding, the MAC —
// cannot be spanned from outside, so a traced window attributes them as
// count x isolated unit cost and labels the result `est`. Counts come from
// the reports the program already returns (SessionConfig.Report).

// sessionShares fills the coding, sim and protocol shares of a traced
// session window. u are the coding unit costs at the workload's own block
// size and field; framesPerSecond is the bare-MAC rate on the medium the
// workload runs on; runSpan names the spans around the emulation proper.
func sessionShares(m map[string]float64, c *layerCounts, win windowInfo, u unitCosts, framesPerSecond float64, runSpan string) {
	if rx := c.absorbs + c.rejects; rx > 0 {
		m["coding.innovative_ratio"] = float64(c.absorbs) / float64(rx)
	}
	codingSeconds := (float64(c.encodes)*u.encode + float64(c.recodes)*u.recodeMean +
		float64(c.absorbs)*u.absorbMean + float64(c.rejects)*u.rejectMean) / 1e6
	m["coding.est_share"] = codingSeconds / win.seconds

	m["sim.frames_tx"] = float64(c.frames)
	if c.nodeSeconds > 0 {
		m["sim.airtime_share"] = c.airtime / c.nodeSeconds
	}
	if c.frames > 0 {
		m["sim.host_us_per_frame"] = win.seconds * 1e6 / float64(c.frames)
	}
	if framesPerSecond > 0 {
		m["sim.est_share"] = float64(c.frames) / framesPerSecond / win.seconds
	}

	self := win.tr.selfByName()
	planning := self["core.select"] + self["core.rate"] + self["core.multi_rate"]
	run := 0.0
	for _, d := range win.tr.durationsMs(runSpan) {
		run += d / 1e3
	}
	if run > 0 {
		m["protocol.plan_share"] = planning / run
	}
	m["protocol.unattributed_share"] = 1 - m["coding.est_share"] - m["sim.est_share"] - planning/win.seconds
}

func (w *sessionWorkload) layerMetrics(_ context.Context, m map[string]float64, win windowInfo) error {
	fx, err := newCodingFixture(w.cfg.Coding)
	if err != nil {
		return err
	}
	u, err := fx.measureUnitCosts()
	if err != nil {
		return err
	}
	sessionShares(m, &w.counts, win, u, m["sim.mac_frames_per_s.subgraph"], "protocol.run.omnc")
	for _, proto := range w.protos {
		key := "protocol.session_ms_p50." + proto.Name()
		if proto.Name() == "etx" {
			key = "routing.etx_session_ms_p50"
		}
		m[key] = median(win.tr.durationsMs("protocol.run." + proto.Name()))
	}
	if len(w.protos) > 1 {
		m["experiments.gain_err"] = gainErr(w.counts.throughput)
	}
	return nil
}

func (w *multiWorkload) layerMetrics(_ context.Context, m map[string]float64, win windowInfo) error {
	fx, err := newCodingFixture(w.cfg.Coding)
	if err != nil {
		return err
	}
	u, err := fx.measureUnitCosts()
	if err != nil {
		return err
	}
	sessionShares(m, &w.counts, win, u, m["sim.mac_frames_per_s.network"], "protocol.run_multi")
	return nil
}

func (w *planWorkload) layerMetrics(_ context.Context, m map[string]float64, win windowInfo) error {
	solverMetrics(m, win.tr, &w.counts, w.in.ScreenedOut)
	return nil
}

// turnedAway reports how many candidate placements the link cap and the
// profile's screen turned away.
func (p *inProcess) turnedAway() (byCap, byScreen int) { return p.in.SkippedByCap, p.in.ScreenedOut }
