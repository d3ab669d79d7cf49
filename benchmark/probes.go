package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"omnc"
	"omnc/internal/coding"
	"omnc/internal/experiments"
	"omnc/internal/gf16"
	"omnc/internal/gf256"
	"omnc/internal/jobs"
	"omnc/internal/protocol"
	"omnc/internal/sessionbench"
	"omnc/internal/sim"
)

// The probes time each layer's exported functions in isolation, from
// outside, at the workloads' own parameters. Every traced run executes all
// of them, so any single traced run carries the whole ledger of unit costs;
// the metrics that derive from a traced window (counts, spans, server
// timestamps) are filled by the workload's layerMetrics and stay zero on
// workloads that never cross the layer.

// probeBudget is the host time one micro-probe may spend.
const probeBudget = 40 * time.Millisecond

// sink keeps the compiler from discarding probed calls.
var sink byte

// bestNs returns the fastest observed cost of fn in nanoseconds per call:
// the batch size is grown until a batch fills a quarter of the budget, then
// the minimum over the remaining batches is taken — the minimum is the
// estimate least disturbed by a noisy host.
func bestNs(fn func()) float64 {
	n := 1
	var per float64
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(start)
		per = float64(el.Nanoseconds()) / float64(n)
		if el >= probeBudget/4 {
			break
		}
		n *= 2
	}
	for b := 0; b < 3; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if v := float64(time.Since(start).Nanoseconds()) / float64(n); v < per {
			per = v
		}
	}
	return per
}

func probeRow(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// calibrateMBps is the host calibration kernel: the full-table GF(2^8)
// mulAdd over 1 KiB rows.
func calibrateMBps() float64 {
	dst, src := probeRow(1024, 1), probeRow(1024, 2)
	ns := bestNs(func() { gf256.MulAddSlice(gf256.StrategyTable, dst, src, 0x53) })
	sink ^= dst[0]
	return 1024 / ns * 1e3
}

func probeGF(m map[string]float64) {
	strategies := []struct {
		name string
		s    gf256.Strategy
	}{{"accel", gf256.StrategyAccel}, {"table", gf256.StrategyTable}, {"bitplane", gf256.StrategyBitPlane}, {"naive", gf256.StrategyNaive}}
	for _, st := range strategies {
		dst, src := probeRow(1024, 3), probeRow(1024, 4)
		ns := bestNs(func() { gf256.MulAddSlice(st.s, dst, src, 0x53) })
		m["gf256.muladd_mbps_1k."+st.name] = 1024 / ns * 1e3
		sink ^= dst[0]
	}
	for _, st := range strategies[:2] {
		// A fig2-quick row: 40 coefficients + 8 payload bytes.
		dst, src := probeRow(48, 5), probeRow(48, 6)
		m["gf256.muladd_ns_48b."+st.name] = bestNs(func() { gf256.MulAddSlice(st.s, dst, src, 0x53) })
		sink ^= dst[0]
	}
	dst, src := probeRow(1024, 7), probeRow(1024, 8)
	m["gf16.muladd_mbps_1k"] = 1024 / bestNs(func() { gf16.MulAdd(dst, src, 0x1234) }) * 1e3
	sink ^= dst[0]
	// A GF(2^16) coefficient row: 40 two-byte elements.
	dst, src = probeRow(80, 9), probeRow(80, 10)
	m["gf16.muladd_ns_80b"] = bestNs(func() { gf16.MulAdd(dst, src, 0x1234) })
	sink ^= dst[0]
}

// unitCosts are the isolated per-packet coding costs in microseconds. The
// rank-dependent ones come twice: at full rank (the ledger's reject and
// recode metrics) and as the mean over the ranks of one generation's fill,
// which is what turns a traced window's packet counts into coding.est_share
// — from outside, the rank a forwarder held when a packet arrived or left is
// not known, and the estimate assumes arrivals and departures spread evenly
// over the fill.
type unitCosts struct {
	encode                             float64
	absorbMean, rejectMean, recodeMean float64
	rejectFull, recodeFull             float64
}

// codingFixture is one generation with a full set of coded packets.
type codingFixture struct {
	params coding.Params
	gen    *coding.Generation
	data   []byte
	pkts   []*coding.Packet // more than GenerationSize, so rank always fills
}

func newCodingFixture(params coding.Params) (*codingFixture, error) {
	data := probeRow(params.GenerationSize*params.BlockSize, 11)
	gen, err := coding.NewGeneration(0, params, data)
	if err != nil {
		return nil, err
	}
	enc := coding.NewEncoder(gen, rand.New(rand.NewSource(12)))
	f := &codingFixture{params: params, gen: gen, data: data}
	for i := 0; i < params.GenerationSize+8; i++ {
		pk := enc.Next()
		f.pkts = append(f.pkts, pk.Clone())
		pk.Release()
	}
	return f, nil
}

// fullRecoder returns a recoder holding the whole generation.
func (f *codingFixture) fullRecoder() (*coding.Recoder, error) {
	rec, err := coding.NewRecoder(0, f.params, rand.New(rand.NewSource(13)))
	if err != nil {
		return nil, err
	}
	for _, pk := range f.pkts {
		if _, err := rec.Add(pk); err != nil {
			return nil, err
		}
	}
	if !rec.Full() {
		return nil, errors.New("probe recoder did not reach full rank")
	}
	return rec, nil
}

// fillCosts walks a recoder through one generation, timing at every rank the
// innovative Add, a repeated (hence non-innovative) Add and a Next; it
// returns the three sums in nanoseconds.
func (f *codingFixture) fillCosts() (absorb, reject, recode time.Duration, err error) {
	rec, err := coding.NewRecoder(0, f.params, rand.New(rand.NewSource(13)))
	if err != nil {
		return 0, 0, 0, err
	}
	defer rec.Close()
	for _, pk := range f.pkts {
		if rec.Full() {
			break
		}
		t0 := time.Now()
		innovative, err := rec.Add(pk)
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		if !innovative {
			continue
		}
		again, _ := rec.Add(pk)
		t2 := time.Now()
		out := rec.Next()
		t3 := time.Now()
		if again || out == nil {
			return 0, 0, 0, errors.New("a repeated packet was innovative, or a non-empty recoder emitted nothing")
		}
		out.Release()
		absorb += t1.Sub(t0)
		reject += t2.Sub(t1)
		recode += t3.Sub(t2)
	}
	if !rec.Full() {
		return 0, 0, 0, errors.New("probe recoder did not reach full rank")
	}
	return absorb, reject, recode, nil
}

// measureUnitCosts times the per-packet coding paths a session walks.
func (f *codingFixture) measureUnitCosts() (unitCosts, error) {
	var u unitCosts
	enc := coding.NewEncoder(f.gen, rand.New(rand.NewSource(14)))
	u.encode = bestNs(func() { enc.Next().Release() }) / 1e3

	// The fastest of several fills, like bestNs.
	n := float64(f.params.GenerationSize)
	for fill, began := 0, time.Now(); fill < 3 || time.Since(began) < probeBudget; fill++ {
		a, r, c, err := f.fillCosts()
		if err != nil {
			return u, err
		}
		if am := float64(a.Nanoseconds()) / n / 1e3; fill == 0 || am < u.absorbMean {
			u.absorbMean = am
		}
		if rm := float64(r.Nanoseconds()) / n / 1e3; fill == 0 || rm < u.rejectMean {
			u.rejectMean = rm
		}
		if cm := float64(c.Nanoseconds()) / n / 1e3; fill == 0 || cm < u.recodeMean {
			u.recodeMean = cm
		}
	}

	rec, err := f.fullRecoder()
	if err != nil {
		return u, err
	}
	defer rec.Close()
	extra := f.pkts[len(f.pkts)-1]
	var full error
	u.rejectFull = bestNs(func() {
		if inn, _ := rec.Add(extra); inn {
			full = errors.New("a packet was innovative at full rank")
		}
	}) / 1e3
	u.recodeFull = bestNs(func() { rec.Next().Release() }) / 1e3
	return u, full
}

func probeCoding(m map[string]float64) error {
	for _, fld := range []struct {
		name  string
		field coding.Field
	}{{"gf8", coding.Field8}, {"gf16", coding.Field16}} {
		params := coding.Params{GenerationSize: generationSize, BlockSize: 1024, Field: fld.field}
		f, err := newCodingFixture(params)
		if err != nil {
			return err
		}
		u, err := f.measureUnitCosts()
		if err != nil {
			return err
		}
		m["coding.encode_us."+fld.name] = u.encode
		m["coding.absorb_us."+fld.name] = u.absorbMean
		m["coding.recode_us."+fld.name] = u.recodeFull
		if fld.field == coding.Field8 {
			m["coding.reject_us.gf8"] = u.rejectFull
		}

		// One generation decoded, bytes verified.
		var decErr error
		decode := func() {
			dec, err := coding.NewDecoder(0, params)
			if err != nil {
				decErr = err
				return
			}
			for _, pk := range f.pkts {
				if dec.Decoded() {
					break
				}
				if _, err := dec.Add(pk); err != nil {
					decErr = err
				}
			}
			if !bytes.Equal(dec.Data(), f.data) {
				decErr = errors.New("decoded generation differs from the source data")
			}
			dec.Close()
		}
		m["coding.decode_gen_ms."+fld.name] = bestNs(decode) / 1e6
		if decErr != nil {
			return decErr
		}
		if fld.field != coding.Field8 {
			continue
		}

		rec, err := f.fullRecoder()
		if err != nil {
			return err
		}
		batch := make([]*coding.Packet, 0, 8)
		m["coding.recode_batch_us.gf8"] = bestNs(func() {
			batch = rec.AppendBatch(batch[:0], 8)
			for _, pk := range batch {
				pk.Release()
			}
		}) / 8 / 1e3
		rec.Close()

		var wireErr error
		pk := f.pkts[0]
		m["coding.wire_us"] = bestNs(func() {
			frame, err := coding.AppendData(coding.GetFrame(params), 1, pk)
			if err != nil {
				wireErr = err
				return
			}
			_, back, err := coding.UnmarshalPacket(frame)
			if err != nil {
				wireErr = err
				return
			}
			back.Release()
			coding.PutFrame(frame)
		}) / 1e3
		if wireErr != nil {
			return wireErr
		}

		// Heap objects per generation with the arenas warm: build, emit one
		// packet per block, decode.
		enc := coding.NewEncoder(f.gen, rand.New(rand.NewSource(15)))
		oneGen := func() {
			g, _ := coding.NewGeneration(1, params, f.data)
			sink ^= g.Block(0)[0]
			for i := 0; i < params.GenerationSize; i++ {
				enc.Next().Release()
			}
			decode()
		}
		m["coding.allocs_per_gen"] = mallocsPer(oneGen, 4)
	}
	return nil
}

// mallocsPer returns the heap objects allocated per call of fn, after one
// warm-up call.
func mallocsPer(fn func(), runs int) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// tick is a no-op engine handler that re-arms itself.
type tick struct {
	eng  sim.Engine
	left int
}

func (t *tick) Fire() {
	if t.left > 0 {
		t.left--
		t.eng.ScheduleHandler(1e-3, t)
	}
}

// backlogged is a transmitter that always has the same frame to send.
type backlogged struct{ frame sim.Frame }

func (b *backlogged) Dequeue() *sim.Frame { return &b.frame }
func (b *backlogged) QueueLen() int       { return 1 }

type nullReceiver struct{}

func (nullReceiver) Receive(int, interface{}) {}

// macFramesPerSecond is bare forwarding: backlogged dummy transmitters and
// null receivers, no coding and no protocol, for `simulated` seconds.
func macFramesPerSecond(medium sim.Medium, tx, rx []int, simulated float64) (float64, error) {
	eng := sim.NewEngine()
	mac, err := sim.NewMAC(eng, medium, sim.Config{Capacity: capacity, Seed: 1})
	if err != nil {
		return 0, err
	}
	for _, n := range rx {
		mac.AttachReceiver(n, nullReceiver{})
	}
	for _, n := range tx {
		mac.AttachTransmitter(n, &backlogged{frame: sim.Frame{Size: airFrame, Broadcast: true}}, math.Inf(1))
	}
	start := time.Now()
	for _, n := range tx {
		mac.Wake(n)
	}
	eng.Run(simulated)
	el := time.Since(start).Seconds()
	var frames int64
	for _, n := range tx {
		frames += mac.FramesSent(n)
	}
	if frames == 0 {
		return 0, errors.New("bare MAC sent no frame")
	}
	return float64(frames) / el, nil
}

func probeSim(m map[string]float64, pw *planWorkload, multi [][]placement) error {
	const handlers, fires = 64, 4000
	eng := sim.NewEngine()
	for i := 0; i < handlers; i++ {
		eng.ScheduleHandler(float64(i)*1e-6, &tick{eng: eng, left: fires})
	}
	start := time.Now()
	executed := eng.Run(math.Inf(1))
	m["sim.engine_events_per_s"] = float64(executed) / time.Since(start).Seconds()

	// A median subgraph: a centre-band session of the quick profile.
	centre := &placer{nw: pw.nws[0], pf: &quickProfile, in: newInputs(pw.in.Seed, 0), used: map[[2]int]bool{},
		r: &rng{s: uint64(derive(pw.in.Seed, streamProbe, 1))}}
	_, sg, _, err := centre.draw(quickProfile.pattern[:1])
	if err != nil {
		return err
	}
	var tx, rx []int
	for i := 0; i < sg.Size(); i++ {
		rx = append(rx, i)
		if i != sg.Dst {
			tx = append(tx, i)
		}
	}
	if m["sim.mac_frames_per_s.subgraph"], err = macFramesPerSecond(protocol.NewMedium(pw.nws[0], sg), tx, rx, 400); err != nil {
		return err
	}

	// The full network with four sessions' transmitters.
	tx, rx = nil, nil
	for _, p := range multi[0] {
		sg, err := omnc.SelectForwarders(pw.nws[0], p.Src, p.Dst)
		if err != nil {
			return err
		}
		for i, node := range sg.Nodes {
			if !slices.Contains(rx, node) {
				rx = append(rx, node)
			}
			if i != sg.Dst && !slices.Contains(tx, node) {
				tx = append(tx, node)
			}
		}
	}
	if m["sim.mac_frames_per_s.network"], err = macFramesPerSecond(pw.nws[0], tx, rx, 100); err != nil {
		return err
	}

	// The parallel engine's payoff on this machine, on the scenario built to
	// show it: identical results, serial time over two-worker time.
	scaledNet, scaledSessions, err := sessionbench.ScaledNetwork()
	if err != nil {
		return err
	}
	var times [2]float64
	var outs [2][]byte
	for i, workers := range []int{0, 2} {
		start := time.Now()
		ms, err := sessionbench.ScaledMultiScenario{EngineWorkers: workers}.Run(scaledNet, scaledSessions)
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		for _, st := range ms.PerSession {
			outs[i] = appendStats(outs[i], st)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return errors.New("parallel engine (2 workers) changed the simulated statistics")
	}
	m["sim.parallel_speedup_w2"] = times[0] / times[1]
	return nil
}

// solverMetrics derives the core and lp layers' numbers from the spans and
// counts of traced plan operations.
func solverMetrics(m map[string]float64, tr *tracer, c *layerCounts, screenedOut int) {
	rate, solve := tr.durationsMs("core.rate"), tr.durationsMs("lp.solve")
	m["core.select_ms_p50"] = median(tr.durationsMs("core.select"))
	m["core.rate_ms_p50"] = median(rate)
	m["core.rate_iters_mean"] = mean(c.rateIters)
	if iters := sum(c.rateIters); iters > 0 {
		m["core.rate_us_per_iter"] = sum(rate) * 1e3 / iters
	}
	m["core.replan_ms_p50"] = median(tr.durationsMs("core.replan"))
	m["core.replan_iters_mean"] = mean(c.replanIters)
	m["core.gap_ratio_mean"] = mean(c.gapRatios)
	m["lp.solve_ms_p50"] = median(solve)
	m["lp.solve_ms_p90"] = percentile(solve, 90)
	m["lp.pivots_mean"] = mean(c.pivots)
	if pivots := sum(c.pivots); pivots > 0 {
		m["lp.us_per_pivot"] = sum(solve) * 1e3 / pivots
	}
	m["lp.invalid"] = float64(c.lpInvalid + screenedOut)
}

// probeSolverExtras measures what no plan operation exercises: the joint
// controller over four sessions, and the LP's steady-state allocations.
func probeSolverExtras(m map[string]float64, pw *planWorkload, multi [][]placement) error {
	var joint []float64
	for _, group := range multi {
		sessions := make([]omnc.MultiSession, len(group))
		for i, p := range group {
			sg, err := omnc.SelectForwarders(pw.nws[0], p.Src, p.Dst)
			if err != nil {
				return err
			}
			sessions[i] = omnc.MultiSession{Subgraph: sg}
		}
		start := time.Now()
		if _, err := omnc.OptimizeRatesJointly(sessions, omnc.RateOptions{Capacity: capacity}); err != nil {
			return err
		}
		joint = append(joint, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["core.multi_rate_ms_p50"] = median(joint)

	p := pw.in.Ops[0][0]
	sg, err := omnc.SelectForwarders(pw.net(0), p.Src, p.Dst)
	if err != nil {
		return err
	}
	var solveErr error
	m["lp.allocs_per_solve"] = mallocsPer(func() {
		if _, err := omnc.SolveOptimalRates(sg, capacity); err != nil {
			solveErr = err
		}
	}, 2)
	return solveErr
}

// probeMemo lets -smoke, which runs every workload in one process, pay for
// the probes once.
var probeMemo map[string]float64

// runProbes fills every isolated per-layer metric. (On the plan workload the
// window's own spans then replace the solver probe's core and lp numbers.)
func runProbes(ctx context.Context, m map[string]float64, seed int64) error {
	if probeMemo != nil {
		for k, v := range probeMemo {
			m[k] = v
		}
		return nil
	}
	probeGF(m)
	if err := probeCoding(m); err != nil {
		return fmt.Errorf("coding: %w", err)
	}

	var gen []float64
	for i := int64(0); i < 3; i++ {
		start := time.Now()
		if _, err := omnc.GenerateNetwork(networkNodes, networkDensity, derive(seed, streamProbe, i)); err != nil {
			return err
		}
		gen = append(gen, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["topology.generate_ms"] = median(gen)

	// The probes' own deployment: a dozen plan-shaped sessions (the solver
	// probe, and the subgraphs the MAC probes run on) and three groups of
	// four (the joint controller, the full-network MAC probe).
	probeSeedValue := derive(seed, streamProbe)
	base, err := setupInProcess(probeSeedValue, &planProfile, 12, nil)
	if err != nil {
		return fmt.Errorf("probe deployment: %w", err)
	}
	pw := &planWorkload{inProcess: base}
	groups := newInputs(probeSeedValue, 3)
	if err := placeSessions(pw.nws[:1], groups, &multiProfile, 3); err != nil {
		return fmt.Errorf("probe deployment: %w", err)
	}
	if err := probeSim(m, pw, groups.Ops); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	tr := newTracer()
	if _, err := pw.op(ctx, pw.warmupOp(), nil); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	for i := range pw.in.Ops {
		if _, err := pw.op(ctx, i, tr); err != nil {
			pw.counts.lpInvalid++
		}
	}
	solverMetrics(m, tr, &pw.counts, pw.in.ScreenedOut)
	if err := probeSolverExtras(m, pw, groups.Ops); err != nil {
		return fmt.Errorf("solver: %w", err)
	}
	if err := probeProtocolAllocs(m); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	if err := probeExperiments(m, seed); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := probeJobs(ctx, m); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// probeProtocolAllocs is the BENCH_6 continuity number: heap objects and
// bytes of one OMNC session on the pinned strip scenario.
func probeProtocolAllocs(m map[string]float64) error {
	nw, src, dst, err := sessionbench.Network()
	if err != nil {
		return err
	}
	sc := sessionbench.Scenarios()[0]
	if _, err := sc.Run(nw, src, dst); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sc.Run(nw, src, dst)
	runtime.ReadMemStats(&after)
	m["protocol.allocs_per_session"] = float64(after.Mallocs - before.Mallocs)
	m["protocol.alloc_kb_per_session"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return err
}

// probeExperiments is the trial-level parallelism payoff: the same eight
// sessions with one worker and with two, results identical.
func probeExperiments(m map[string]float64, seed int64) error {
	var times [2]float64
	var outs [2][]byte
	for i, workers := range []int{1, 2} {
		cfg := experiments.QuickConfig(derive(seed, streamProbe, 7))
		cfg.Sessions = 8
		cfg.Duration = 50
		cfg.QueueSampleInterval = 0
		cfg.Workers = workers
		start := time.Now()
		cmp, err := experiments.RunComparison(cfg)
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		for _, s := range cmp.Sessions {
			for _, name := range []string{"omnc", "more", "oldmore", "etx"} {
				outs[i] = appendStats(outs[i], s.ByProtocol[name])
			}
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		return errors.New("RunComparison with 2 workers changed the results")
	}
	m["experiments.workers2_speedup"] = times[0] / times[1]
	return nil
}

// probeJobs times the jobs layer in-process on a temporary directory: each
// queue transition is one journal append plus fsync.
func probeJobs(ctx context.Context, m map[string]float64) error {
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "queue.jsonl")
	q, err := jobs.OpenQueue(journal)
	if err != nil {
		return err
	}
	defer q.Close()
	store, err := jobs.OpenStore(filepath.Join(dir, "runs"))
	if err != nil {
		return err
	}
	const n = 40
	var submit, claim, done, land, run []float64
	since := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	for i := 0; i < n; i++ {
		spec, err := jobs.Decode([]byte(fig1Spec(int64(i + 1))))
		if err != nil {
			return err
		}
		t := time.Now()
		job, err := q.Submit(spec)
		submit = append(submit, since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		claimed, ok, err := q.Claim()
		claim = append(claim, since(t))
		if err != nil || !ok || claimed.ID != job.ID {
			return fmt.Errorf("claim of %s: ok=%v err=%v", job.ID, ok, err)
		}
		t = time.Now()
		res, err := jobs.Run(ctx, spec)
		run = append(run, since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		runID, err := store.Land(res)
		land = append(land, since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		err = q.Done(job.ID, runID)
		done = append(done, since(t))
		if err != nil {
			return err
		}
	}
	m["jobs.submit_ms_p50"] = median(submit)
	m["jobs.claim_ms_p50"] = median(claim)
	m["jobs.done_ms_p50"] = median(done)
	m["jobs.land_ms_p50"] = median(land)
	m["jobs.run_ms_p50"] = median(run)
	spec, err := jobs.Decode([]byte(fig1Spec(1)))
	if err != nil {
		return err
	}
	m["jobs.spec_hash_us"] = bestNs(func() { sink ^= spec.Hash()[0] }) / 1e3
	buf, err := os.ReadFile(journal)
	if err != nil {
		return err
	}
	m["jobs.journal_bytes_per_job"] = float64(len(buf)) / n
	ms, err := replayMs(buf)
	if err != nil {
		return err
	}
	m["jobs.replay_ms_per_1k"] = ms / (float64(bytes.Count(buf, []byte{'\n'})) / 1000)
	return nil
}
