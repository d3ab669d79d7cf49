// Package omnc is a Go implementation of OMNC — Optimized Multipath Network
// Coding in lossy wireless networks (Zhang & Li, ICDCS 2008) — together with
// the baselines and the emulation substrate the paper evaluates against.
//
// The package offers four layers:
//
//   - Topology: random lossy wireless deployments with the paper's PHY model
//     (GenerateNetwork, NetworkFromMatrix, NetworkFromPositions).
//   - Optimization: node selection and the distributed rate-control
//     algorithm of the paper's Table 1, plus the centralized sUnicast LP
//     (SelectForwarders, OptimizeRates, SolveOptimalRates).
//   - Coding: random linear network coding over GF(2^8) with progressive
//     Gauss-Jordan decoding (NewGeneration, NewEncoder, NewRecoder,
//     NewDecoder).
//   - Emulation: end-to-end unicast sessions on a discrete-event wireless
//     channel through one entry point — Run(net, src, dst, proto, cfg) —
//     where proto is a Protocol value from the OMNC, MORE, OldMORE or ETX
//     constructors; RunMulti(net, sessions, proto, cfg) runs several
//     contending sessions of the same protocol on one shared channel. The
//     coding scheme and redundancy are session parameters
//     (SessionConfig.Scheme, SessionConfig.Redundancy).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for how every
// figure of the paper is regenerated.
package omnc

import (
	"math/rand"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/graph"
	"omnc/internal/protocol"
	"omnc/internal/report"
	"omnc/internal/routing"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrInvalidPHY matches any rejected PHY model (NetworkFromPositions,
	// GenerateNetwork with a partially specified PHY).
	ErrInvalidPHY = topology.ErrInvalidPHY
	// ErrNoRoute matches any routability failure between session endpoints,
	// whether node selection found no forwarder subgraph (coded protocols)
	// or Dijkstra found no path (ETX).
	ErrNoRoute = graph.ErrNoRoute
	// ErrInvalidSession matches any rejected multi-unicast session list:
	// out-of-range endpoints, a session whose source equals its destination,
	// or duplicated (src, dst) pairs.
	ErrInvalidSession = protocol.ErrInvalidSession
	// ErrInvalidFaultPlan matches any rejected fault plan: unordered or
	// overlapping events, out-of-range nodes, malformed episodes.
	ErrInvalidFaultPlan = faults.ErrInvalidPlan
	// ErrDestinationDown matches a session whose destination crashed with no
	// recovery scheduled before the horizon.
	ErrDestinationDown = protocol.ErrDestinationDown
	// ErrInvalidScheme matches a rejected coding scheme, whether an unknown
	// -scheme flag name (ParseScheme) or an out-of-range
	// SessionConfig.Scheme value (SessionConfig.Validate).
	ErrInvalidScheme = coding.ErrInvalidScheme
	// ErrInvalidRedundancy matches a rejected SessionConfig.Redundancy: the
	// factor must be 0 (rateless) or at least 1.
	ErrInvalidRedundancy = coding.ErrInvalidRedundancy
	// ErrInvalidField matches a rejected coefficient field, whether an
	// unknown -field flag name (ParseField) or a field/scheme combination the
	// coding layer cannot serve (Reed-Solomon is GF(2^8)-only).
	ErrInvalidField = coding.ErrInvalidField
)

// Re-exported types. The aliases keep the public API surface in one place
// while the implementations live in focused internal packages.
type (
	// Network is a wireless deployment: node positions plus lossy links.
	Network = topology.Network
	// PHY maps link distance to reception probability.
	PHY = topology.PHY
	// Point is a node position in meters.
	Point = topology.Point
	// TopologyConfig parameterizes random deployments.
	TopologyConfig = topology.Config

	// Subgraph is a session's selected forwarder set.
	Subgraph = core.Subgraph
	// RateOptions tunes the distributed rate-control algorithm (Table 1).
	RateOptions = core.Options
	// RateResult is the optimized rate allocation.
	RateResult = core.Result
	// LPResult is the centralized sUnicast optimum.
	LPResult = core.LPResult

	// CodingParams fixes generation size, block size and coefficient field.
	CodingParams = coding.Params
	// Scheme selects the coding strategy of a session: full-recoding RLNC
	// (the default), end-to-end RLNC, or source-only Reed-Solomon.
	Scheme = coding.Scheme
	// Field selects the coefficient field of a session's code: Field8
	// (GF(2^8), the paper's default) or Field16 (GF(2^16)).
	Field = coding.Field
	// Generation holds one generation of source blocks.
	Generation = coding.Generation
	// Packet is one coded packet.
	Packet = coding.Packet
	// Encoder emits random linear combinations at the source.
	Encoder = coding.Encoder
	// RSEncoder emits systematic Reed-Solomon shards at the source
	// (SchemeRS).
	RSEncoder = coding.RSEncoder
	// Recoder re-encodes buffered innovative packets at a forwarder.
	Recoder = coding.Recoder
	// ForwardBuffer queues innovative packets verbatim at a non-recoding
	// forwarder (SchemeRLNCE2E, SchemeRS).
	ForwardBuffer = coding.ForwardBuffer
	// Decoder progressively decodes a generation at the destination.
	Decoder = coding.Decoder

	// SessionConfig parameterizes one emulated unicast session.
	SessionConfig = protocol.Config
	// SessionStats summarizes one emulated session.
	SessionStats = protocol.Stats
	// Protocol is a named, runnable forwarding protocol; obtain one from the
	// OMNC, MORE, OldMORE or ETX constructors and pass it to Run.
	Protocol = protocol.Protocol
)

// Coding schemes, settable as SessionConfig.Scheme and spelled "rlnc",
// "rlnc-e2e" and "rs" by the CLI -scheme flags (Scheme.String/ParseScheme).
const (
	// SchemeRLNC is the paper's full-recoding RLNC: every forwarder
	// re-encodes over its buffered subspace, refreshing redundancy per hop.
	SchemeRLNC = coding.SchemeRLNC
	// SchemeRLNCE2E is end-to-end RLNC: only the source codes; forwarders
	// relay innovative packets verbatim.
	SchemeRLNCE2E = coding.SchemeRLNCE2E
	// SchemeRS is source-only systematic Reed-Solomon over GF(256).
	SchemeRS = coding.SchemeRS
)

// Coefficient fields, settable as CodingParams.Field and spelled "8" and
// "16" by the CLI -field flags (Field.String/ParseField).
const (
	// Field8 is GF(2^8) with byte coefficients — the paper's field and the
	// zero-value default; runs are bit-identical to builds without the knob.
	Field8 = coding.Field8
	// Field16 is GF(2^16): non-innovative arrivals drop from ~1/256 to
	// ~1/65536 per packet at the cost of doubled coefficient overhead.
	Field16 = coding.Field16
)

// ParseScheme maps a scheme name ("rlnc", "rlnc-e2e", "rs") to its value;
// unknown names fail with ErrInvalidScheme. The inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) { return coding.ParseScheme(name) }

// ParseField maps a field name ("8", "16", or "" for the default) to its
// value; unknown names fail with ErrInvalidField. The inverse of
// Field.String.
func ParseField(name string) (Field, error) { return coding.ParseField(name) }

// DefaultCodingParams are the paper's evaluation parameters: generations of
// 40 blocks of 1 KB (Sec. 5).
func DefaultCodingParams() CodingParams { return coding.DefaultParams() }

// GenerateNetwork deploys nodes uniformly at random with the given expected
// density (nodes per range disk, the paper uses 6) and the default lossy
// PHY.
func GenerateNetwork(nodes int, density float64, seed int64) (*Network, error) {
	return topology.Generate(topology.Config{
		Nodes:   nodes,
		Density: density,
		PHY:     topology.DefaultPHY(),
		Seed:    seed,
	})
}

// NetworkFromMatrix builds a network from an explicit link-probability
// matrix (prob[i][j] is the one-way reception probability of link i->j).
func NetworkFromMatrix(prob [][]float64) (*Network, error) {
	return topology.NewExplicit(prob)
}

// NetworkFromPositions builds a network from node coordinates under the
// given PHY. A zero-value PHY selects the default lossy model; any other
// PHY must pass PHY.Validate, so a partially filled model fails loudly with
// ErrInvalidPHY instead of being silently replaced.
func NetworkFromPositions(positions []Point, phy PHY) (*Network, error) {
	if phy == (PHY{}) {
		phy = topology.DefaultPHY()
	}
	if err := phy.Validate(); err != nil {
		return nil, err
	}
	return topology.FromPositions(positions, phy)
}

// DefaultPHY returns the lossy PHY model (mean neighbour link quality
// ~0.58); use PHY.CalibrateGain to retune transmit power.
func DefaultPHY() PHY { return topology.DefaultPHY() }

// SelectForwarders runs the decentralized node selection of Sec. 4 for a
// unicast session, returning the forwarder subgraph the optimization and
// the protocols operate on.
func SelectForwarders(net *Network, src, dst int) (*Subgraph, error) {
	return core.SelectNodes(net, src, dst)
}

// OptimizeRates runs the distributed rate-control algorithm (Table 1) on a
// selected subgraph and returns the per-node broadcast/encoding rates, the
// per-link information rates, and the throughput estimate.
func OptimizeRates(sg *Subgraph, opts RateOptions) (*RateResult, error) {
	joint, err := core.RateControl([]*Subgraph{sg}, opts)
	if err != nil {
		return nil, err
	}
	return joint.PerSession[0], nil
}

// SolveOptimalRates solves the sUnicast linear program (1)-(5) centrally
// with a simplex solver — the reference the distributed algorithm converges
// to.
func SolveOptimalRates(sg *Subgraph, capacity float64) (*LPResult, error) {
	return core.SolveLP(sg, capacity)
}

// NewGeneration builds a generation from raw data, zero-padding the final
// block.
func NewGeneration(id int, params CodingParams, data []byte) (*Generation, error) {
	return coding.NewGeneration(id, params, data)
}

// NewEncoder returns a source encoder for the generation drawing
// coefficients from rng.
func NewEncoder(gen *Generation, rng *rand.Rand) *Encoder {
	return coding.NewEncoder(gen, rng)
}

// NewRecoder returns a forwarder's re-encoding buffer for the identified
// generation.
func NewRecoder(generation int, params CodingParams, rng *rand.Rand) (*Recoder, error) {
	return coding.NewRecoder(generation, params, rng)
}

// NewDecoder returns a progressive Gauss-Jordan decoder for the identified
// generation.
func NewDecoder(generation int, params CodingParams) (*Decoder, error) {
	return coding.NewDecoder(generation, params)
}

// OMNC is the paper's protocol: node selection, distributed rate control
// (Table 1), and rate-driven re-encoding forwarders. opts tunes the rate
// controller; the zero value selects its defaults. Run and RunMulti build
// sessions the same way: the rates of all the sessions of a run come from
// one joint solve (OptimizeRatesJointly, congestion prices shared per
// physical node), which for Run's one session is OptimizeRates exactly.
func OMNC(opts RateOptions) Protocol {
	return protocol.OMNC(opts)
}

// MORE is the SIGCOMM'07 opportunistic-routing baseline: TX-credit
// forwarding from the ETX heuristic, no rate control.
func MORE() Protocol {
	return protocol.NewProtocol("more", routing.MORE())
}

// OldMORE is the min-cost transmission-plan baseline in the spirit of Lun et
// al.: pruned forwarders, no rate control.
func OldMORE() Protocol {
	return protocol.NewProtocol("oldmore", routing.OldMORE())
}

// ETX is traditional best-path routing on the ETX metric with MAC-layer
// retransmissions — the paper's throughput-gain baseline. No coding, no
// multipath.
func ETX() Protocol {
	return protocol.ETX()
}

// Run emulates one unicast session from src to dst under the given protocol
// and returns its statistics. All protocols run over the same selected
// subgraph and channel model, so their results compare like with like.
func Run(net *Network, src, dst int, proto Protocol, cfg SessionConfig) (*SessionStats, error) {
	return proto.Run(net, src, dst, cfg)
}

// Extension types (beyond the paper's single-unicast evaluation; see
// DESIGN.md "Extensions").
type (
	// Endpoints identifies one session of a multiple-unicast run.
	Endpoints = protocol.Endpoints
	// MultiStats aggregates a multiple-unicast emulation: per-session
	// statistics plus aggregate throughput and Jain's fairness index.
	MultiStats = protocol.MultiStats
	// MultiSession is one session of a joint rate-control problem.
	MultiSession = core.MultiSession
	// MultiResult is the joint rate allocation.
	MultiResult = core.MultiResult
)

// OptimizeRatesJointly allocates rates to several concurrent unicast
// sessions sharing the channel: per-session SUB1/SUB2 with congestion
// prices shared per network node (the paper's multiple-unicast extension).
// It is the algorithm OptimizeRates runs, over every session at once: one
// session gets exactly OptimizeRates' result.
func OptimizeRatesJointly(sessions []MultiSession, opts RateOptions) (*MultiResult, error) {
	sgs := make([]*Subgraph, len(sessions))
	for i, s := range sessions {
		sgs[i] = s.Subgraph
	}
	return core.RateControl(sgs, opts)
}

// RunMulti emulates several unicast sessions of one protocol sharing the
// channel simultaneously — the multiple-unicast scenario of the paper's
// conclusion. All sessions attach to one event engine and one MAC over the
// full network, so they genuinely contend for air time; invalid session
// lists fail with ErrInvalidSession. The protocol builds its sessions as Run
// builds one: OMNC solves all N sessions' rates in one joint solve
// (OptimizeRatesJointly), so a one-session RunMulti agrees with Run; MORE,
// OldMORE and ETX contend uncoordinated.
func RunMulti(net *Network, sessions []Endpoints, proto Protocol, cfg SessionConfig) (*MultiStats, error) {
	return protocol.RunMulti(net, sessions, proto, cfg)
}

// Tracing types: attach a TraceBuffer (or any TraceRecorder) to
// SessionConfig.Trace to capture per-packet protocol events.
type (
	// TraceRecorder consumes protocol events.
	TraceRecorder = trace.Recorder
	// TraceEvent is one protocol occurrence.
	TraceEvent = trace.Event
	// TraceEventType classifies protocol events.
	TraceEventType = trace.EventType
	// TraceBuffer is an in-memory recorder with query helpers.
	TraceBuffer = trace.Buffer
)

// Trace event types.
const (
	TraceTx         = trace.EventTx
	TraceRx         = trace.EventRx
	TraceInnovative = trace.EventInnovative
	TraceDiscard    = trace.EventDiscard
	TraceDecode     = trace.EventDecode
	TraceGeneration = trace.EventGeneration
)

// NewTraceBuffer returns an empty in-memory trace recorder.
func NewTraceBuffer() *TraceBuffer { return trace.NewBuffer() }

// Observability report types: set SessionConfig.Report and a session fills
// SessionStats.Report with per-node counters, the per-link delivery matrix,
// MAC airtime, latency/queue histograms, the destination's rank-progress
// timeline and a fault/replan summary. The hooks follow the fault overlay's
// nil-until-enabled contract, so runs with Report unset stay bit-identical
// and allocation-free (see DESIGN.md).
type (
	// Report is one session's observability report, JSON-encodable
	// (`omnc-sim -report out.json` writes exactly this).
	Report = report.Report
	// ReportNodeCounters is one node's packet counters within a Report.
	ReportNodeCounters = report.NodeCounters
	// ReportHistogram is a fixed-bucket histogram within a Report.
	ReportHistogram = report.Histogram
)

// Fault injection types: attach a FaultPlan to SessionConfig.Faults to
// schedule node crashes, link flaps, Gilbert-Elliott burst-loss episodes and
// network-wide link-quality drift (Sec. 4's re-initiation scenario) against
// an emulated session. The protocols re-optimize at each topology change; a
// session whose destination crashes for good fails with ErrDestinationDown.
type (
	// FaultPlan is an ordered schedule of fault events, JSON-encodable.
	FaultPlan = faults.Plan
	// FaultEvent is one timed fault.
	FaultEvent = faults.Event
	// FaultKind classifies fault events.
	FaultKind = faults.Kind
	// RandomFaultPlanConfig parameterizes RandomFaultPlan.
	RandomFaultPlanConfig = faults.RandomPlanConfig
)

// Fault event kinds.
const (
	FaultNodeCrash   = faults.NodeCrash
	FaultNodeRecover = faults.NodeRecover
	FaultLinkFlap    = faults.LinkFlap
	FaultBurstLoss   = faults.BurstLoss
	// FaultQualityDrift re-draws every link's quality within ±Jitter and
	// charges Duration seconds of re-initiation dead time.
	FaultQualityDrift = faults.QualityDrift
)

// DecodeFaultPlan parses a JSON fault plan and validates it; failures wrap
// ErrInvalidFaultPlan. It never panics on malformed input.
func DecodeFaultPlan(data []byte) (*FaultPlan, error) { return faults.DecodePlan(data) }

// RandomFaultPlan samples a valid randomized fault plan — Poisson arrivals
// per fault process, episodes that never overlap on a link — reproducible
// from its seed.
func RandomFaultPlan(cfg RandomFaultPlanConfig) (*FaultPlan, error) { return faults.RandomPlan(cfg) }
