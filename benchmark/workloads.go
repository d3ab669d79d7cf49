package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"omnc"
	"omnc/internal/core"
)

// instance is one set-up workload: the program under test plus the inputs
// generated for it. op runs operation i, checks its output and returns the
// checked output's canonical encoding (it feeds result_digest); a non-nil
// error is a failed operation. tr is nil on the untraced pass.
type instance interface {
	// warmupOp is the operation a set-up runs once, untimed, to fill the
	// program's pooled arenas and solver workspaces before the window opens.
	warmupOp() int
	op(ctx context.Context, i int, tr *tracer) ([]byte, error)
	// referenceOp maps window operation i to the operation a traced run
	// times untraced beforehand: the same one wherever operations can be
	// repeated without changing what they do.
	referenceOp(i int) int
	// usage reports the measured process's CPU seconds so far and its
	// current resident set in MB.
	usage() (cpuSeconds, rssMB float64)
	inputHash() string
	// layerMetrics fills the per-layer metrics that derive from the traced
	// window just run (counts, spans, server-side timestamps).
	layerMetrics(ctx context.Context, m map[string]float64, win windowInfo) error
	close() error
}

// windowInfo is what a traced window hands to layerMetrics.
type windowInfo struct {
	tr      *tracer
	ops     int
	seconds float64 // the traced window's length
	opP50Ms float64
	opMs    []float64
}

// Session fidelity shared by the workloads (the paper's Sec. 5 settings:
// 40-block generations, 1 KB frames on a 2e4 B/s channel, CBR at half of it).
const (
	generationSize = 40
	airFrame       = generationSize + 1024
	capacity       = 2e4
	cbrRate        = 1e4
)

// paperGains are the mean throughput gains over ETX routing the paper
// reports on the lossy network (Sec. 5, Fig. 2 left).
var paperGains = map[string]float64{"omnc": 2.45, "more": 1.67, "oldmore": 1.12}

func quickConfig(duration float64) omnc.SessionConfig {
	return omnc.SessionConfig{
		Coding:        omnc.CodingParams{GenerationSize: generationSize, BlockSize: 8},
		AirPacketSize: airFrame,
		Capacity:      capacity,
		CBRRate:       cbrRate,
		Duration:      duration,
	}
}

func paperConfig(field omnc.Field) omnc.SessionConfig {
	cfg := omnc.SessionConfig{
		Coding:         omnc.CodingParams{GenerationSize: generationSize, BlockSize: 1024, Field: field},
		Capacity:       capacity,
		Duration:       600,
		MaxGenerations: 4,
	}
	cfg.AirPacketSize = cfg.Coding.CoeffBytes() + 1024
	return cfg
}

// layerCounts are the counts a traced pass reads off the reports the program
// already returns; multiplied by isolated unit costs they give the `est`
// shares of the layers that cannot be spanned from outside.
type layerCounts struct {
	encodes, recodes  int64                // coded frames sent by sources / by forwarders
	absorbs, rejects  int64                // innovative / non-innovative coded receptions
	frames            int64                // every frame handed to the MAC
	airtime           float64              // summed air occupancy of every node, simulated s
	nodeSeconds       float64              // simulated seconds x nodes they were summed over
	throughput        map[string][]float64 // per protocol, fig2-quick only
	gapRatios         []float64
	rateIters, pivots []float64
	replanIters       []float64
	lpInvalid         int
}

func (c *layerCounts) addReport(st *omnc.SessionStats) {
	r := st.Report
	if r == nil {
		return
	}
	c.frames += r.MAC.FramesSent
	c.airtime += r.MAC.AirtimeSeconds
	c.nodeSeconds += st.Duration * float64(len(r.Nodes))
	if r.Protocol == "etx" {
		return // store-and-forward: no coding work
	}
	for _, n := range r.Nodes {
		if n.Node == 0 { // the source is always local node 0
			c.encodes += n.TxFrames
		} else {
			c.recodes += n.TxFrames
		}
		c.absorbs += n.Innovative
		c.rejects += n.RxPackets - n.Innovative
	}
}

// inProcess is the part of an instance the five in-process workloads share.
type inProcess struct {
	nws    []*omnc.Network
	in     *inputs
	hash   string
	counts layerCounts
}

func (p *inProcess) usage() (float64, float64) { return selfCPUSeconds(), selfRSSMB() }
func (p *inProcess) inputHash() string         { return p.hash }
func (p *inProcess) referenceOp(i int) int     { return i }
func (p *inProcess) warmupOp() int             { return 0 }
func (p *inProcess) close() error              { return nil }

// net is the deployment operation i runs on.
func (p *inProcess) net(i int) *omnc.Network { return p.nws[p.in.Ops[i][0].Net] }

// setupInProcess is the shared set-up: the deployments, then placement.
func setupInProcess(seed int64, pf *profile, ops int, tr *tracer) (*inProcess, error) {
	in := newInputs(seed, ops)
	var nws []*omnc.Network
	for _, netSeed := range in.NetworkSeeds {
		sp := tr.begin("topology.generate", -1, -1)
		nw, err := omnc.GenerateNetwork(networkNodes, networkDensity, netSeed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		nws = append(nws, nw)
	}
	sp := tr.begin("benchmark.place", -1, -1)
	err := placeSessions(nws, in, pf, ops)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &inProcess{nws: nws, in: in, hash: in.hash(nws)}, nil
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func appendFloats(b []byte, name string, vs []float64) []byte {
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, '=')
	for _, v := range vs {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, ',')
	}
	return b
}

// appendStats is the canonical encoding of every simulated statistic of a
// session: a change meant only to speed the simulator must leave it — and
// with it result_digest — identical.
func appendStats(b []byte, st *omnc.SessionStats) []byte {
	b = fmt.Appendf(b, "%s tp=%s gens=%d dur=%s mq=%s nu=%s pu=%s inn=%d tot=%d gamma=%s iters=%d sel=%d",
		st.Policy, fmtFloat(st.Throughput), st.GenerationsDecoded, fmtFloat(st.Duration),
		fmtFloat(st.MeanQueue), fmtFloat(st.NodeUtility), fmtFloat(st.PathUtility),
		st.InnovativeReceived, st.TotalReceived, fmtFloat(st.Gamma), st.RateIterations, st.SelectedNodes)
	b = appendFloats(b, "lat", st.GenerationLatencies)
	b = appendFloats(b, "q", st.QueuePerNode)
	return append(b, '\n')
}

// checkSession is the session output check: the run decoded at least one
// generation (exactly wantGens when positive) at a finite positive
// throughput. ETX routing is store-and-forward — its "generations" are
// forty delivered packets, which a weak ten-hop path need not reach in 200
// simulated seconds — so for it delivery at a positive rate is the check.
func checkSession(st *omnc.SessionStats, wantGens int) error {
	switch {
	case st == nil:
		return errors.New("no statistics")
	case wantGens > 0 && st.GenerationsDecoded != wantGens:
		return fmt.Errorf("decoded %d generations, want %d", st.GenerationsDecoded, wantGens)
	case st.GenerationsDecoded < 1 && st.Policy != "etx":
		return errors.New("decoded zero generations")
	case !(st.Throughput > 0) || math.IsInf(st.Throughput, 0):
		return fmt.Errorf("throughput %v is not finite and positive", st.Throughput)
	}
	return nil
}

// sessionWorkload runs each placed session under a list of protocols:
// all four for fig2-quick, OMNC alone for the 1 KiB workloads.
type sessionWorkload struct {
	*inProcess
	cfg      omnc.SessionConfig
	protos   []omnc.Protocol
	wantGens int
}

func fourProtocols() []omnc.Protocol {
	return []omnc.Protocol{omnc.OMNC(omnc.RateOptions{}), omnc.MORE(), omnc.OldMORE(), omnc.ETX()}
}

func (w *sessionWorkload) op(_ context.Context, i int, tr *tracer) ([]byte, error) {
	p := w.in.Ops[i][0]
	cfg := w.cfg
	cfg.Seed = w.in.OpSeeds[i]
	cfg.Report = tr != nil
	root := tr.begin("op", -1, i)
	defer tr.end(root)
	if tr != nil {
		// The planning an OMNC session does before its first packet, spanned
		// here because the session itself cannot be opened up from outside.
		sp := tr.begin("core.select", root, i)
		sg, err := omnc.SelectForwarders(w.net(i), p.Src, p.Dst)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.rate", root, i)
		_, err = omnc.OptimizeRates(sg, omnc.RateOptions{Capacity: cfg.Capacity})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	var out []byte
	for _, proto := range w.protos {
		sp := tr.begin("protocol.run."+proto.Name(), root, i)
		st, err := omnc.Run(w.net(i), p.Src, p.Dst, proto, cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", proto.Name(), err)
		}
		if err := checkSession(st, w.wantGens); err != nil {
			return nil, fmt.Errorf("%s: %w", proto.Name(), err)
		}
		out = appendStats(out, st)
		if tr != nil {
			w.counts.addReport(st)
			if len(w.protos) > 1 {
				if w.counts.throughput == nil {
					w.counts.throughput = make(map[string][]float64)
				}
				w.counts.throughput[proto.Name()] = append(w.counts.throughput[proto.Name()], st.Throughput)
			}
		}
	}
	return out, nil
}

// gainErr is the simulated accuracy against the paper on fig2-quick: the
// mean over the coded protocols of |mean gain over ETX - paper's| / paper's.
func gainErr(throughput map[string][]float64) float64 {
	base := throughput["etx"]
	if len(base) == 0 {
		return 0
	}
	sum := 0.0
	for name, want := range paperGains {
		gains := 0.0
		for i, tp := range throughput[name] {
			gains += tp / base[i]
		}
		sum += math.Abs(gains/float64(len(base))-want) / want
	}
	return sum / float64(len(paperGains))
}

// multiWorkload emulates four contending OMNC sessions per operation on the
// full deployment.
type multiWorkload struct {
	*inProcess
	cfg omnc.SessionConfig
}

func (w *multiWorkload) op(_ context.Context, i int, tr *tracer) ([]byte, error) {
	sessions := make([]omnc.Endpoints, len(w.in.Ops[i]))
	for s, p := range w.in.Ops[i] {
		sessions[s] = omnc.Endpoints{Src: p.Src, Dst: p.Dst}
	}
	cfg := w.cfg
	cfg.Seed = w.in.OpSeeds[i]
	cfg.Report = tr != nil
	root := tr.begin("op", -1, i)
	defer tr.end(root)
	if tr != nil {
		// The joint planning RunMulti does before its first packet.
		multi := make([]omnc.MultiSession, len(sessions))
		for s, e := range sessions {
			sp := tr.begin("core.select", root, i)
			sg, err := omnc.SelectForwarders(w.net(i), e.Src, e.Dst)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			multi[s] = omnc.MultiSession{Subgraph: sg}
		}
		sp := tr.begin("core.multi_rate", root, i)
		_, err := omnc.OptimizeRatesJointly(multi, omnc.RateOptions{Capacity: cfg.Capacity})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := tr.begin("protocol.run_multi", root, i)
	ms, err := omnc.RunMulti(w.net(i), sessions, omnc.OMNC(omnc.RateOptions{}), cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkMulti(ms); err != nil {
		return nil, err
	}
	out := fmt.Appendf(nil, "agg=%s jain=%s\n", fmtFloat(ms.AggregateThroughput), fmtFloat(ms.JainFairness))
	for _, st := range ms.PerSession {
		out = appendStats(out, st)
		if tr != nil {
			w.counts.addReport(st)
		}
	}
	return out, nil
}

// checkMulti is the multi-session output check. Four sessions sharing one
// channel for a minute need not each finish a 40-block generation, so the
// check is on progress and on the books: no session ended abnormally, every
// destination received innovative packets, no session counts more
// innovative than received packets, and the aggregate is the finite sum of
// the per-session throughputs.
func checkMulti(ms *omnc.MultiStats) error {
	if ms == nil || len(ms.PerSession) == 0 {
		return errors.New("no statistics")
	}
	for i, err := range ms.SessionErrors {
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	sum := 0.0
	for i, st := range ms.PerSession {
		switch {
		case st.InnovativeReceived < 1:
			return fmt.Errorf("session %d received no innovative packet", i)
		case st.InnovativeReceived > st.TotalReceived:
			return fmt.Errorf("session %d counts %d innovative of %d received packets", i, st.InnovativeReceived, st.TotalReceived)
		case !(st.Throughput >= 0) || math.IsInf(st.Throughput, 0):
			return fmt.Errorf("session %d throughput %v is not finite", i, st.Throughput)
		}
		sum += st.Throughput
	}
	if math.Abs(sum-ms.AggregateThroughput) > 1e-9*math.Max(1, sum) {
		return fmt.Errorf("aggregate throughput %v is not the sum %v of the sessions", ms.AggregateThroughput, sum)
	}
	return nil
}

// planWorkload is the solver path of one session: node selection, the
// distributed rate control, three single-forwarder-down replans and the
// centralized sUnicast LP the distributed answer is validated against.
type planWorkload struct{ *inProcess }

func (w *planWorkload) op(_ context.Context, i int, tr *tracer) ([]byte, error) {
	p := w.in.Ops[i][0]
	root := tr.begin("op", -1, i)
	defer tr.end(root)

	sp := tr.begin("core.select", root, i)
	sg, err := omnc.SelectForwarders(w.net(i), p.Src, p.Dst)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	opts := omnc.RateOptions{Capacity: capacity}
	sp = tr.begin("core.rate", root, i)
	res, err := omnc.OptimizeRates(sg, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := fmt.Appendf(nil, "rate gamma=%s iters=%d", fmtFloat(res.Gamma), res.Iterations)
	out = appendFloats(out, "b", res.B)
	for _, f := range p.Down {
		down := make([]bool, sg.Size())
		down[f] = true
		sp = tr.begin("core.replan", root, i)
		re, err := omnc.OptimizeRates(sg.Masked(down, nil), opts)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replan without forwarder %d: %w", f, err)
		}
		out = fmt.Appendf(out, " replan%d gamma=%s iters=%d", f, fmtFloat(re.Gamma), re.Iterations)
		if tr != nil {
			w.counts.replanIters = append(w.counts.replanIters, float64(re.Iterations))
		}
	}
	sp = tr.begin("lp.solve", root, i)
	lp, err := omnc.SolveOptimalRates(sg, capacity)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// "Feasible schedules can be generated by rescaling the broadcast rate"
	// (Sec. 3.2): the rescaled distributed allocation is LP-feasible, so its
	// throughput can never exceed the LP optimum.
	rescaled := rescaledGamma(sg, res)
	if tr != nil {
		w.counts.rateIters = append(w.counts.rateIters, float64(res.Iterations))
		w.counts.pivots = append(w.counts.pivots, float64(lp.Iterations))
		if lp.Gamma > 0 {
			w.counts.gapRatios = append(w.counts.gapRatios, rescaled/lp.Gamma)
		}
	}
	if err := checkPlan(lp, res, rescaled); err != nil {
		if tr != nil {
			w.counts.lpInvalid++
		}
		return nil, err
	}
	out = fmt.Appendf(out, " lp gamma=%s pivots=%d", fmtFloat(lp.Gamma), lp.Iterations)
	out = appendFloats(out, "b", lp.B)
	return append(out, '\n'), nil
}

// rescaledGamma is the throughput of the distributed allocation once its
// supporting rates are rescaled onto the MAC constraint.
func rescaledGamma(sg *omnc.Subgraph, res *omnc.RateResult) float64 {
	_, scale := core.RescaleFeasible(sg, res.SupportingRates(sg), capacity)
	return res.Gamma * scale
}

// checkPlan is the solver output check: a non-negative LP optimum, no
// negative rate anywhere, and the rescaled distributed throughput at most
// the LP optimum.
func checkPlan(lp *omnc.LPResult, res *omnc.RateResult, rescaledGamma float64) error {
	if lp == nil || res == nil {
		return errors.New("no result")
	}
	if !(lp.Gamma >= 0) {
		return fmt.Errorf("LP optimum %v is negative", lp.Gamma)
	}
	const tol = -1e-6 * capacity // the simplex works in capacity units to 1e-9
	for _, rates := range [][]float64{lp.B, lp.X, res.B, res.X} {
		for _, v := range rates {
			if !(v >= tol) {
				return fmt.Errorf("negative rate %v", v)
			}
		}
	}
	if rescaledGamma > lp.Gamma*(1+1e-6) {
		return fmt.Errorf("rescaled distributed gamma %v exceeds LP optimum %v", rescaledGamma, lp.Gamma)
	}
	return nil
}

// workloadDef names one workload, says why it exists and how it is sized.
type workloadDef struct {
	name string
	why  string
	// opsPerSecond sizes the run: ceil(opsPerSecond * seconds) operations.
	// Counts are a function of --seconds alone, never of how fast the code
	// under test is, so both sides of a comparison do identical work; the
	// rates were tuned once so that the window lasts about --seconds on the
	// machine the baseline was recorded on.
	opsPerSecond float64
	setups       int // set-up repeats; 0 means setupRepeats
	clients      func() int
	// prepare, when set, runs once before the first set-up and outside
	// every metric (daemon: compile the child), and may annotate the result.
	prepare func(ctx context.Context, res *result) error
	setup   func(ctx context.Context, seed int64, ops int, tr *tracer) (instance, error)
}

func (w *workloadDef) opCount(seconds int) int {
	n := int(math.Ceil(w.opsPerSecond * float64(seconds)))
	if n < 1 {
		n = 1
	}
	return n
}

func one() int { return 1 }

var workloads = []*workloadDef{
	{
		name:         "fig2-quick",
		why:          "the paper's headline comparison as users run it: one placed session under omnc, more, oldmore and etx at laptop fidelity; MAC, short-row GF, map-keyed MAC state and every protocol hold a visible share",
		opsPerSecond: 4,
		clients:      one,
		setup: func(_ context.Context, seed int64, ops int, tr *tracer) (instance, error) {
			base, err := setupInProcess(seed, &quickProfile, ops, tr)
			if err != nil {
				return nil, err
			}
			return &sessionWorkload{inProcess: base, cfg: quickConfig(200), protos: fourProtocols()}, nil
		},
	},
	{
		name:         "session-1k",
		why:          "one OMNC session at paper fidelity (40 x 1 KiB over GF(2^8), 4 generations): coding-bound, where a kernel, rref, recoder or pool change must show and a MAC change must not",
		opsPerSecond: 7.5,
		clients:      one,
		setup: func(_ context.Context, seed int64, ops int, tr *tracer) (instance, error) {
			base, err := setupInProcess(seed, &paperProfile, ops, tr)
			if err != nil {
				return nil, err
			}
			return &sessionWorkload{inProcess: base, cfg: paperConfig(omnc.Field8),
				protos: []omnc.Protocol{omnc.OMNC(omnc.RateOptions{})}, wantGens: 4}, nil
		},
	},
	{
		name:         "session-1k-gf16",
		why:          "the same session over GF(2^16): the coding layer used differently, so a field-ops or kernel change that helps one field and costs the other shows as one row up, one row down",
		opsPerSecond: 4.5,
		clients:      one,
		setup: func(_ context.Context, seed int64, ops int, tr *tracer) (instance, error) {
			base, err := setupInProcess(seed, &paperProfile, ops, tr)
			if err != nil {
				return nil, err
			}
			return &sessionWorkload{inProcess: base, cfg: paperConfig(omnc.Field16),
				protos: []omnc.Protocol{omnc.OMNC(omnc.RateOptions{})}, wantGens: 4}, nil
		},
	},
	{
		name:         "multi-contend",
		why:          "RunMulti with 4 OMNC sessions on the full 300-node MAC: MAC scheduling dominates and coding is a few percent, the mirror image of session-1k",
		opsPerSecond: 2,
		clients:      one,
		setup: func(_ context.Context, seed int64, ops int, tr *tracer) (instance, error) {
			base, err := setupInProcess(seed, &multiProfile, ops, tr)
			if err != nil {
				return nil, err
			}
			return &multiWorkload{inProcess: base, cfg: quickConfig(60)}, nil
		},
	},
	{
		name:         "plan",
		why:          "select, rate control, three replans and the sUnicast LP for one session: solver-bound, the only place a sparse or column-generated LP can show end to end",
		opsPerSecond: 25,
		clients:      one,
		setup: func(_ context.Context, seed int64, ops int, tr *tracer) (instance, error) {
			base, err := setupInProcess(seed, &planProfile, ops, tr)
			if err != nil {
				return nil, err
			}
			return &planWorkload{inProcess: base}, nil
		},
	},
	{
		name:         "daemon",
		why:          "fig1 jobs through omnc-serve over loopback HTTP, about 1 ms of compute each: journal fsync, claim scheduling, store landing and HTTP are the operation; every other workload bypasses jobs and serve",
		opsPerSecond: 350,
		setups:       daemonSetupRepeats,
		clients:      daemonClients,
		prepare:      prepareDaemon,
		setup:        setupDaemon,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
