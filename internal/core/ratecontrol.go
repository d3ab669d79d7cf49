package core

import (
	"fmt"
	"math"
)

// Options tunes the distributed rate-control algorithm (Table 1). The zero
// value of any field selects the documented default.
type Options struct {
	// Capacity is the MAC channel capacity C in bytes/second. The paper's
	// convergence showcase uses 1e5. Default 1e5.
	Capacity float64
	// StepA, StepB, StepC parameterize the diminishing step size
	// theta(t) = A / (B + C*t). The paper quotes A=1, B=0.5, C=10 for its
	// Fig. 1 run on raw byte rates; this implementation normalizes all
	// rates by the channel capacity (so the dual variables live on their
	// natural O(1/gamma) scale), under which the equivalent decay is much
	// slower. Defaults: A=1, B=0.5, C=0.05.
	StepA, StepB, StepC float64
	// Sigma is the proximal constant of SUB2's quadratic regularizer
	// (Sec. 3.3); smaller values take more aggressive b updates.
	// Default 0.5.
	Sigma float64
	// MaxIterations bounds the optimization loop. Default 400.
	MaxIterations int
	// Tolerance is the convergence threshold on the recovered broadcast
	// rates: the loop stops when no averaged rate moved by more than
	// Tolerance (relative to capacity) over the last Window iterations.
	// Default 1e-3.
	Tolerance float64
	// Window is the stability window for convergence detection. Default 10.
	Window int
	// RecordTrace enables per-iteration snapshots of every session (used
	// to draw Fig. 1).
	RecordTrace bool
	// FreshWorkspace disables solver-workspace reuse: every solve allocates
	// its scratch storage instead of drawing it from the package pool. The
	// results are bit-identical either way — pooled scratch is re-zeroed on
	// acquisition — which is exactly what the solver-reuse property tests
	// assert by running both modes. Production runs leave this false.
	FreshWorkspace bool
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1e5
	}
	if o.StepA <= 0 {
		o.StepA = 1
	}
	if o.StepB <= 0 {
		o.StepB = 0.5
	}
	if o.StepC <= 0 {
		o.StepC = 0.05
	}
	if o.Sigma <= 0 {
		o.Sigma = 0.5
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 400
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-3
	}
	if o.Window <= 0 {
		o.Window = 10
	}
	return o
}

// Snapshot is one iteration of the optimization trace.
type Snapshot struct {
	Iteration int
	// B are the recovered (running-average) broadcast rates in bytes/s,
	// indexed by local node.
	B []float64
	// Gamma is the current recovered throughput estimate in bytes/s.
	Gamma float64
}

// Result is the outcome of the rate-control algorithm for one session.
type Result struct {
	// B[i] is the optimized broadcast/encoding rate of local node i in
	// bytes/second (the paper's rate vector b, after primal recovery).
	B []float64
	// X[l] is the information flow rate on Links[l] in bytes/second (the
	// multipath routing scheme, after primal recovery).
	X []float64
	// Gamma is the optimized end-to-end throughput estimate in
	// bytes/second.
	Gamma float64
	// Iterations is the number of iterations executed.
	Iterations int
	// Converged reports whether the stability criterion was met before
	// MaxIterations.
	Converged bool
	// Trace holds per-iteration snapshots when Options.RecordTrace is set.
	Trace []Snapshot
}

// MultiSession is one unicast session of a multiple-unicast problem, with
// its selected forwarder subgraph.
type MultiSession struct {
	// Subgraph is the session's forwarder set (local indices private to
	// the session).
	Subgraph *Subgraph
}

// MultiResult is the outcome of rate control over one or more sessions.
type MultiResult struct {
	// PerSession holds each session's rate allocation, index-aligned with
	// the input sessions.
	PerSession []*Result
	// Iterations is the number of joint iterations executed.
	Iterations int
	// Converged reports whether every session's recovered rates
	// stabilized.
	Converged bool
}

// RateControl runs the distributed rate-control algorithm of Table 1 over
// one or more unicast sessions sharing the channel, until convergence or
// MaxIterations. One session is Table 1 itself. Several sessions are the
// multiple-unicast extension the paper's conclusion points to ("the rate
// control framework can be flexibly extended to other scenarios such as the
// multiple-unicast case"): the broadcast MAC constraint (4) couples the
// sessions at every common receiver, so each session keeps its private
// Lagrange multipliers lambda and runs its own SUB1/SUB2, while the
// congestion prices beta are shared per network node and priced against the
// aggregate neighbourhood load of all sessions. The objective becomes
// proportional fairness, sum of ln(gamma_s), which SUB1 already implements
// per session via U = ln. Every subgraph's Nodes must hold IDs of one
// network.
//
// The implementation mirrors the message-passing structure of the paper —
// every update of node i uses only quantities available at i or advertised
// by its neighbours — but executes the rounds in a single process. All rates
// are normalized internally by the channel capacity C so the subgradient
// steps of (8) and (15) operate on O(1) quantities; results are scaled back
// to bytes/second.
func RateControl(sessions []*Subgraph, opts Options) (*MultiResult, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no sessions")
	}
	for s, sg := range sessions {
		if sg == nil || len(sg.Links) == 0 {
			return nil, fmt.Errorf("core: session %d has no forwarder links", s)
		}
	}
	o := opts.withDefaults()

	// All scratch storage comes from the pooled workspace (workspace.go):
	// acquisition re-zeroes every slice, so the solve below is byte-for-byte
	// the same computation as with freshly made slices, without the
	// per-iteration (and per-replan) allocations.
	ws := getRateWorkspace(o.FreshWorkspace)
	defer putRateWorkspace(ws, o.FreshWorkspace)
	views, nSlots := ws.layout(sessions)
	n := len(sessions)

	// Step 1 of Table 1: primal variables at small positive values, duals
	// at zero. Everything below is in capacity units (C == 1). The source
	// holds no price: (4) holds for i != S.
	const initRate = 0.01
	for s, sg := range sessions {
		b := views[s].b
		for i := range b {
			b[i] = initRate
		}
		b[sg.Dst] = 0 // the destination never transmits for its session
	}
	beta := fill(&ws.beta, nSlots, 0)

	// Running sums for primal recovery (13) and (18). Plain 1/t averaging
	// over the whole history would let the crude early iterates dominate
	// for thousands of rounds, so the averages restart at every
	// power-of-two iteration: at any time they cover at least the latest
	// half of the run, which remains a valid ergodic primal recovery in the
	// sense of Sherali-Choi while converging much faster in practice.
	// Full-history sums (traceSum*) drive the reported Fig. 1 trace: they
	// converge more slowly but without the visible jumps the epoch restarts
	// would cause.
	epochStart := 1
	nextRestart := 2

	res := &MultiResult{PerSession: make([]*Result, n)}
	for s := range res.PerSession {
		res.PerSession[s] = &Result{}
	}
	stable := 0
	for t := 1; t <= o.MaxIterations; t++ {
		res.Iterations = t
		if t == nextRestart {
			clear(ws.sumX)
			clear(ws.sumB)
			epochStart = t
			nextRestart *= 2
			stable = 0
		}
		span := float64(t - epochStart + 1)
		theta := o.StepA / (o.StepB + o.StepC*float64(t))
		copy(ws.prevAvgB, ws.avgB)

		for s, sg := range sessions {
			v := views[s]
			k, nl := sg.Size(), len(sg.Links)

			// --- Step 3, SUB1: shortest path under the session's link
			// costs lambda, then gamma = U'^{-1}(p_min) with U = ln, i.e.
			// gamma = 1/p_min (12).
			sg.ForwardGraphInto(&ws.g, v.lambda)
			path, pMin, ok := ws.pf.ShortestPath(&ws.g, sg.Src, sg.Dst)
			if !ok {
				return nil, &ErrUnreachable{Src: sg.Nodes[sg.Src], Dst: sg.Nodes[sg.Dst]}
			}
			gamma := 1.0 // cap at capacity: gamma in (0, C]
			if pMin > 1 {
				gamma = 1 / pMin
			}
			xt := fill(&ws.xt, nl, 0)
			ws.onPath = pathLinkIndicesInto(sg, path, ws.onPath[:0])
			for _, li := range ws.onPath {
				xt[li] = gamma
			}
			for li := range xt {
				v.sumX[li] += xt[li]
				v.avgX[li] = v.sumX[li] / span // primal recovery (13)
				if o.RecordTrace {
					v.traceSumX[li] += xt[li]
				}
			}

			// --- Step 4, SUB2: proximal update of b (17) against the
			// shared congestion prices. w_i = sum_j lambda_ij p_ij over
			// out-links of i.
			w := fill(&ws.w, k, 0)
			for li, l := range sg.Links {
				w[l.From] += v.lambda[li] * l.Prob
			}
			for i := 0; i < k; i++ {
				if i == sg.Dst {
					continue
				}
				grad := w[i]
				if p := v.slot[i]; p >= 0 {
					grad -= beta[p]
				}
				for _, j := range sg.Neighbors(i) {
					if p := v.slot[j]; p >= 0 {
						grad -= beta[p]
					}
				}
				nb := v.b[i] + grad/(2*o.Sigma)*theta
				// Loose bounds 0 <= b_i <= C keep iterates bounded (Sec. 3.3).
				if nb < 0 {
					nb = 0
				}
				if nb > 1 {
					nb = 1
				}
				v.b[i] = nb
			}
			for i := range v.b {
				v.sumB[i] += v.b[i]
				v.avgB[i] = v.sumB[i] / span // primal recovery (18)
				if o.RecordTrace {
					v.traceSumB[i] += v.b[i]
				}
			}

			// --- Step 5: Lagrange multiplier update (8) with the raw
			// iterates.
			for li, l := range sg.Links {
				slack := v.b[l.From]*l.Prob - xt[li]
				v.lambda[li] = math.Max(0, v.lambda[li]-theta*slack)
			}
		}

		// Congestion price update (15) at every receiver slot against the
		// aggregate load b_i + sum_{j in N(i)} b_j - C of every session the
		// network node takes part in.
		for p := range beta {
			viol := -1.0 // -C first: one session sums (b_i - C) + ..., Table 1's order
			for s, local := range ws.host[p*n : (p+1)*n] {
				if local < 0 {
					continue
				}
				b := views[s].b
				viol += b[local]
				for _, j := range sessions[s].Neighbors(local) {
					viol += b[j]
				}
			}
			beta[p] = math.Max(0, beta[p]+theta*viol)
		}

		if o.RecordTrace {
			for s, sg := range sessions {
				v := &views[s]
				snap := Snapshot{Iteration: t, B: make([]float64, sg.Size())}
				tAvgX := make([]float64, len(sg.Links))
				for li := range v.traceSumX {
					tAvgX[li] = v.traceSumX[li] / float64(t)
				}
				for i := range v.traceSumB {
					snap.B[i] = v.traceSumB[i] / float64(t) * o.Capacity
				}
				snap.Gamma = recoveredGamma(sg, tAvgX) * o.Capacity
				res.PerSession[s].Trace = append(res.PerSession[s].Trace, snap)
			}
		}

		// Convergence: recovered rates of every session stable for Window
		// iterations within the current averaging epoch (epoch restarts
		// reset the counter).
		maxDelta := 0.0
		for i := range ws.avgB {
			if d := math.Abs(ws.avgB[i] - ws.prevAvgB[i]); d > maxDelta {
				maxDelta = d
			}
		}
		if t-epochStart >= 1 && maxDelta < o.Tolerance {
			stable++
			if stable >= o.Window {
				res.Converged = true
				break
			}
		} else {
			stable = 0
		}
	}

	for s, sg := range sessions {
		v := &views[s]
		r := res.PerSession[s]
		r.Iterations, r.Converged = res.Iterations, res.Converged
		r.B = make([]float64, sg.Size())
		for i := range v.avgB {
			r.B[i] = v.avgB[i] * o.Capacity
		}
		r.X = make([]float64, len(sg.Links))
		for li := range v.avgX {
			r.X[li] = v.avgX[li] * o.Capacity
		}
		r.Gamma = recoveredGamma(sg, v.avgX) * o.Capacity
	}
	return res, nil
}

// SupportingRates returns a copy of r.B raised where necessary so that the
// broadcast-support constraint (5) holds against the recovered flows:
// b_i >= x_ij / p_ij for every out-link. The rate vector and the flow
// vector are recovered by independent ergodic averages, and on degenerate
// sessions (multiple primal optima) the raw b iterates can sit at zero for
// nodes whose recovered flows still carry traffic; a protocol driving
// transmitters from such a vector would silence forwarders the routing
// scheme depends on. The result generally violates the MAC constraint (4)
// slightly and should be passed through RescaleFeasible.
func (r *Result) SupportingRates(sg *Subgraph) []float64 {
	b := append([]float64(nil), r.B...)
	for li, l := range sg.Links {
		if need := r.X[li] / l.Prob; need > b[l.From] {
			b[l.From] = need
		}
	}
	return b
}

// recoveredGamma reads the throughput off the recovered flows: the net flow
// out of the source.
func recoveredGamma(sg *Subgraph, x []float64) float64 {
	g := 0.0
	for _, li := range sg.Out(sg.Src) {
		g += x[li]
	}
	for _, li := range sg.In(sg.Src) {
		g -= x[li]
	}
	return g
}

// pathLinkIndicesInto maps a node path to the indices of its links, appending
// into a caller-supplied buffer (which must be empty) so hot loops can reuse
// storage.
func pathLinkIndicesInto(sg *Subgraph, path, idx []int) []int {
	for h := 0; h+1 < len(path); h++ {
		from, to := path[h], path[h+1]
		for _, li := range sg.Out(from) {
			if sg.Links[li].To == to {
				idx = append(idx, li)
				break
			}
		}
	}
	return idx
}

// RescaleFeasible scales the broadcast-rate vector b (bytes/s) by the
// largest factor that keeps the broadcast MAC constraint (4) satisfied at
// every receiver: "feasible schedules can be generated by rescaling the
// broadcast rate" (Sec. 3.2). An infeasible vector is scaled down to the
// boundary; a strictly interior vector — the usual outcome of finitely many
// subgradient iterations, whose recovered averages undershoot the optimum —
// is scaled up to it, which preserves the optimized rate *proportions* while
// reclaiming the idle capacity the optimum would use. Individual rates are
// additionally clamped to the channel capacity. It returns the scaled copy
// and the factor applied.
func RescaleFeasible(sg *Subgraph, b []float64, capacity float64) ([]float64, float64) {
	scale := math.Inf(1)
	for i := 0; i < sg.Size(); i++ {
		if i == sg.Src {
			continue
		}
		load := b[i]
		for _, j := range sg.Neighbors(i) {
			load += b[j]
		}
		if load > 0 {
			if s := capacity / load; s < scale {
				scale = s
			}
		}
	}
	if math.IsInf(scale, 1) {
		scale = 1 // nothing transmits anywhere near a receiver
	}
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = v * scale
		if out[i] > capacity {
			out[i] = capacity
		}
	}
	return out, scale
}
