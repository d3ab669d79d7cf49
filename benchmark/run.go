package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run (one workload, one pass) reports. The
// driver-facing last line of standard output is a projection of it; -out
// writes it whole, and -compare reads sets of them.
type result struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	LoadShape string `json:"load_shape"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// FirstFailure is the first failed operation's reason, for the log.
	FirstFailure string `json:"first_failure,omitempty"`

	WindowSeconds float64                `json:"window_s"`
	Samples       int                    `json:"latency_samples"`
	TailName      string                 `json:"tail_percentile,omitempty"`
	TailMs        float64                `json:"tail_ms,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	// Bases are the denominators behind the reported shares and ratios.
	Bases map[string]string `json:"bases,omitempty"`

	InputHash    string  `json:"input_hash"`
	ResultDigest string  `json:"result_digest"`
	SkippedByCap int     `json:"skipped_by_cap,omitempty"`
	ScreenedOut  int     `json:"screened_out,omitempty"`
	BuildSeconds float64 `json:"build_s,omitempty"`
	Noisy        bool    `json:"noisy,omitempty"`
	TraceFile    string  `json:"trace_file,omitempty"`
	Machine      machine `json:"machine"`
}

type runConfig struct {
	workload *workloadDef
	seed     int64
	seconds  int
	traced   bool
	outDir   string
	// setups overrides the workload's set-up repeats when positive (-smoke
	// sets up once).
	setups int
}

// rssSamples bounds how often a pass reads the measured process's resident
// set: the process's lifetime high-water mark (VmHWM) turned out to be set by
// transient garbage of the set-up phase — the same seed read 13.8 to 22 MB —
// while the resident set at operation boundaries repeats within 4 %.
const rssSamples = 50

// pass is one sweep over operations [0, n): latencies in milliseconds,
// checked outputs and errors by operation index.
type pass struct {
	seconds float64
	cpu     float64
	peakRSS float64 // largest resident set sampled at operation boundaries, MB
	ms      []float64
	out     [][]byte
	errs    []error
}

// runOps executes operations [0, n) as a closed loop from `clients`
// goroutines; operation i belongs to client i mod clients, and remap (when
// set) substitutes the operation actually run in slot i. A panicking
// client is reported as an error instead of tearing the process down, so the
// caller's deferred clean-up (child process, temp dir) still runs.
func runOps(ctx context.Context, inst instance, n, clients int, tr *tracer, remap func(int) int) (*pass, error) {
	p := &pass{ms: make([]float64, n), out: make([][]byte, n), errs: make([]error, n)}
	cpu0, _ := inst.usage()
	// Client 0 samples the resident set about rssSamples times per pass.
	stride := (n/clients + rssSamples - 1) / rssSamples
	if stride < 1 {
		stride = 1
	}
	start := time.Now()
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicErr error
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					panicErr = fmt.Errorf("client %d panicked: %v", c, r)
					panicMu.Unlock()
				}
			}()
			for i := c; i < n; i += clients {
				if ctx.Err() != nil {
					p.errs[i] = ctx.Err()
					continue
				}
				op := i
				if remap != nil {
					op = remap(i)
				}
				t := time.Now()
				p.out[i], p.errs[i] = inst.op(ctx, op, tr)
				p.ms[i] = float64(time.Since(t).Nanoseconds()) / 1e6
				if c == 0 && (i/clients)%stride == 0 {
					if _, rss := inst.usage(); rss > p.peakRSS {
						p.peakRSS = rss
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.seconds = time.Since(start).Seconds()
	cpu1, _ := inst.usage()
	p.cpu = cpu1 - cpu0
	if panicErr != nil {
		return nil, panicErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// failures counts the failed operations of a pass and returns the first
// reason.
func (p *pass) failures() (n int, first string) {
	for i, err := range p.errs {
		if err != nil {
			if n == 0 {
				first = fmt.Sprintf("operation %d: %v", i, err)
			}
			n++
		}
	}
	return n, first
}

func (p *pass) digest() string {
	h := sha256.New()
	for i, out := range p.out {
		fmt.Fprintf(h, "op%d:", i)
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// okLatencies are the latencies of the operations that passed their check.
func (p *pass) okLatencies() []float64 {
	var ms []float64
	for i, err := range p.errs {
		if err == nil {
			ms = append(ms, p.ms[i])
		}
	}
	return ms
}

// endToEndMetrics derives the user-visible numbers of an untraced window.
// Failed operations are excluded from ops_per_s and from the latencies.
func endToEndMetrics(p *pass, setupSeconds []float64) map[string]float64 {
	n := len(p.errs)
	failed, _ := p.failures()
	return map[string]float64{
		"setup_s":      median(setupSeconds),
		"ops_per_s":    float64(n-failed) / p.seconds,
		"op_ms_p50":    median(p.okLatencies()),
		"cpu_s_per_op": p.cpu / float64(n),
		"peak_rss_mb":  p.peakRSS,
	}
}

// runWorkload is one run: set the workload up setupRepeats times (the median
// is setup_s), then time the window. An untraced run yields the end-to-end
// metrics; a traced run yields the per-layer metrics and writes the spans.
func runWorkload(ctx context.Context, rc runConfig) (*result, error) {
	w := rc.workload
	ops := w.opCount(rc.seconds)
	clients := w.clients()
	res := &result{
		Workload: w.name, Why: w.why, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		LoadShape: fmt.Sprintf("closed loop, %d client goroutine(s), %d operations, one process", clients, ops),
		Attempted: ops, Machine: thisMachine(), Bases: map[string]string{},
	}
	if w.prepare != nil {
		if err := w.prepare(ctx, res); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	calibBefore := calibrateMBps()

	var (
		inst   instance
		setups []float64
	)
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	repeats := rc.setups
	if repeats == 0 {
		repeats = w.setups
	}
	if repeats == 0 {
		repeats = setupRepeats
	}
	for r := 0; r < repeats; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		begin := time.Now()
		var err error
		if inst, err = w.setup(ctx, rc.seed, ops, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if _, err := inst.op(ctx, inst.warmupOp(), nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up operation: %w", w.name, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	res.InputHash = inst.inputHash()
	if ip, ok := inst.(interface{ turnedAway() (int, int) }); ok {
		res.SkippedByCap, res.ScreenedOut = ip.turnedAway()
	}

	// A traced run first times the leading quarter of the operations
	// untraced: the same operations traced, over that reference, is the
	// tracing overhead.
	var reference *pass
	if rc.traced {
		var err error
		if reference, err = runOps(ctx, inst, referenceOps(ops), clients, nil, inst.referenceOp); err != nil {
			return nil, err
		}
	}
	window, err := runOps(ctx, inst, ops, clients, tr, nil)
	if err != nil {
		return nil, err
	}

	res.WindowSeconds = window.seconds
	res.Failed, res.FirstFailure = window.failures()
	res.ResultDigest = window.digest()
	ok := window.okLatencies()
	res.Samples = len(ok)
	if p, defined := tailPercentile(len(ok)); defined {
		res.TailName = fmt.Sprintf("p%g", p)
		res.TailMs = percentile(ok, p)
	}

	// Re-running operation 0 after the window must reproduce its output
	// exactly (simulated statistics, rates, artifact bytes).
	if window.errs[0] == nil {
		if again, err := inst.op(ctx, inst.referenceOp(0), nil); err != nil || !bytes.Equal(again, window.out[0]) {
			res.Failed++
			if res.FirstFailure == "" {
				res.FirstFailure = fmt.Sprintf("operation 0 re-run after the window differs (err: %v)", err)
			}
		}
	}
	res.Correct = res.Failed == 0

	res.Metrics = make(map[string]metricValue)
	if !rc.traced {
		vals := endToEndMetrics(window, setups)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
		res.Bases["ops_per_s"] = fmt.Sprintf("%d correct operations / %.3f s window", ops-res.Failed, window.seconds)
		res.Bases["cpu_s_per_op"] = fmt.Sprintf("%.3f CPU s / %d operations", window.cpu, ops)
		res.Bases["op_ms_p50"] = fmt.Sprintf("%d samples", len(ok))
		res.Bases["setup_s"] = fmt.Sprintf("median of %d set-ups: %.3f", len(setups), setups)
	} else {
		m := make(map[string]float64, len(perLayer))
		if err := runProbes(ctx, m, rc.seed); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		win := windowInfo{tr: tr, ops: ops, seconds: window.seconds, opMs: ok, opP50Ms: median(ok)}
		if err := inst.layerMetrics(ctx, m, win); err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", w.name, err)
		}
		refSeconds, tracedSeconds := 0.0, 0.0
		for i := range reference.ms {
			refSeconds += reference.ms[i]
			tracedSeconds += window.ms[i]
		}
		m["host.trace_overhead_ratio"] = tracedSeconds / refSeconds
		res.Bases["host.trace_overhead_ratio"] = fmt.Sprintf("%.1f ms traced / %.1f ms untraced over the first %d operations", tracedSeconds, refSeconds, len(reference.ms))
		m["host.calib_mbps"] = calibBefore
		m["host.calib_drift"] = calibrateMBps() / calibBefore
		res.Noisy = m["host.calib_drift"] < 0.9 || m["host.calib_drift"] > 1.1
		for _, key := range []string{"coding.est_share", "sim.est_share", "protocol.plan_share", "protocol.unattributed_share"} {
			res.Bases[key] = fmt.Sprintf("of the %.3f s traced window", window.seconds)
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		}
		if rc.outDir != "" {
			res.TraceFile = filepath.Join(rc.outDir, w.name+".trace.jsonl")
			if err := tr.writeJSONL(res.TraceFile); err != nil {
				return nil, err
			}
		}
	}
	err = inst.close()
	inst = nil
	return res, err
}

// machine is the line that makes a recorded number interpretable.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commitID(),
	}
}
