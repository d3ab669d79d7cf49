// Package protocol implements the end-to-end coded unicast runtime of
// Sec. 3.1 and Sec. 4 of the paper — generations, re-encoding forwarders,
// progressive decoding at the destination, ACK-driven generation turnover
// and queue management — on top of the internal/sim MAC model. The OMNC
// protocol proper is the runtime driven by the rate allocation of
// internal/core; the MORE and oldMORE baselines (internal/routing) reuse the
// same runtime with their own forwarding policies, which is also how the
// paper's testbed shares the coding modules between protocols ("Both
// protocols share the same encoding and decoding modules", Sec. 5).
package protocol

import (
	"errors"
	"fmt"
	"math"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/graph"
	"omnc/internal/report"
	"omnc/internal/sim"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// Config parameterizes one emulated unicast session.
type Config struct {
	// Coding are the RLC parameters (the paper: 40 blocks of 1 KB).
	Coding coding.Params
	// Scheme selects the coding strategy: full-recoding RLNC (the zero
	// value, the paper's scheme), end-to-end RLNC (relays forward
	// innovative packets verbatim), or source-only Reed-Solomon. See
	// coding.Scheme.
	Scheme coding.Scheme
	// Redundancy caps the source at ceil(Redundancy * GenerationSize)
	// coded packets per generation. 0 (the default) is rateless: the
	// source keeps emitting until the generation is acknowledged. Values
	// in (0, 1) are rejected by Validate.
	Redundancy float64
	// AirPacketSize overrides the on-air frame size in bytes; 0 means
	// Coding.PacketSize(). Experiments that shrink BlockSize for speed pass
	// the full-fidelity size here so air times stay faithful.
	AirPacketSize int
	// Capacity is the MAC channel capacity in bytes/second.
	Capacity float64
	// Duration is the emulated session length in seconds.
	Duration float64
	// CBRRate limits how fast source data becomes available (the paper's
	// UDP CBR workload at half capacity); 0 means an unbounded backlog.
	CBRRate float64
	// Seed drives losses and coding coefficients.
	Seed int64
	// QueueSampleInterval is the Fig. 3 queue sampling period; 0 disables.
	QueueSampleInterval float64
	// AckSize is the control-packet size used to model the uncoded ACK's
	// best-path trip back to the source (Sec. 3.1). Default 64 bytes.
	AckSize int
	// MaxGenerations stops the session after that many decoded
	// generations; 0 means run for the full Duration.
	MaxGenerations int
	// MAC selects the channel-access model (sim.ModeOracle by default; the
	// MAC-sensitivity ablation uses sim.ModeCSMA).
	MAC sim.Mode
	// Trace receives protocol events (transmissions, receptions,
	// innovation decisions, generation turnover) when non-nil.
	Trace trace.Recorder
	// Faults schedules node churn, link flaps and bursty-loss episodes on
	// the emulation (see internal/faults). Events address network node IDs.
	// Nil runs fault-free and is bit-identical to a build without the
	// feature.
	Faults *faults.Plan
	// Report enables the session's observability report (internal/report):
	// per-node counters, delivery matrix, MAC airtime, latency and queue
	// histograms, rank timeline and fault summary land in Stats.Report.
	// The hooks follow the fault-overlay contract — nil until enabled, no
	// extra RNG draws — so a run with Report false is bit-identical to a
	// build without the feature.
	Report bool
	// EngineWorkers selects the discrete-event engine driving the run: 0
	// (the default) runs the proven serial engine; N >= 1 runs the
	// conservative time-bucketed parallel engine with N workers, which
	// executes same-timestamp deliveries of different sessions
	// concurrently. Any value produces bit-identical SessionStats, traces
	// and Reports — the worker count only changes wall-clock time.
	EngineWorkers int
	// TimeQuantum, when positive, rounds MAC frame-completion times up to
	// this grid (sim.Config TimeQuantum). Concurrent transmitters then
	// complete in shared calendar buckets, which is what gives the parallel
	// engine multi-session rounds to run concurrently. A timing-model
	// parameter: results stay deterministic and engine-independent for any
	// fixed value but differ from the continuous-time default of 0.
	TimeQuantum float64
}

// WithDefaults fills the zero fields of a session configuration: the paper's
// 40 x 1 KB generations, a 2e4 B/s channel, 60 emulated seconds. Both
// runners apply it on entry — Protocol.Run and RunMulti.
func (c Config) WithDefaults() Config {
	if c.Coding.GenerationSize == 0 && c.Coding.BlockSize == 0 {
		c.Coding = coding.DefaultParams()
	}
	if c.AirPacketSize <= 0 {
		c.AirPacketSize = c.Coding.PacketSize()
	}
	if c.Capacity <= 0 {
		c.Capacity = 2e4
	}
	if c.Duration <= 0 {
		c.Duration = 60
	}
	if c.AckSize <= 0 {
		c.AckSize = 64
	}
	return c
}

// Validate checks the session configuration's coding parameters, scheme and
// redundancy factor. Scheme and redundancy failures are matchable with
// errors.Is against coding.ErrInvalidScheme and coding.ErrInvalidRedundancy,
// consistent with the other typed sentinels (ErrInvalidSession,
// topology.ErrInvalidPHY).
func (c Config) Validate() error {
	if err := c.Coding.Validate(); err != nil {
		return err
	}
	if !c.Scheme.Valid() {
		return fmt.Errorf("%w: %d", coding.ErrInvalidScheme, int(c.Scheme))
	}
	if c.Scheme == coding.SchemeRS && c.Coding.Field != coding.Field8 {
		return fmt.Errorf("%w: Reed-Solomon codes over GF(2^8) only", coding.ErrInvalidField)
	}
	return coding.ValidateRedundancy(c.Redundancy)
}

// Policy is a forwarding discipline over a selected subgraph: it fixes who
// transmits, how fast, and how reception converts into transmission credit.
// OMNC, MORE and oldMORE are all instances.
type Policy struct {
	// Name labels the policy in stats and logs.
	Name string
	// Caps[i] limits local node i's broadcast rate in bytes/second
	// (math.Inf(1) = contend freely). OMNC installs its optimized rate
	// vector here.
	Caps []float64
	// Credit[i] is added to node i's transmission credit per innovative
	// packet received. The source ignores credit (it is backlogged by the
	// CBR workload).
	Credit []float64
	// SendWhenNonEmpty makes a forwarder broadcast re-encoded packets at
	// its allotted rate whenever it holds at least one innovative packet,
	// regardless of credit — OMNC's discipline: "all outgoing packets are
	// generated by re-encoding existing innovative packets, at a rate
	// assigned by the rate control algorithm", and full-rank nodes
	// "continue re-encoding packets and broadcasting them ... at the
	// specified rate" until the generation is ACKed (Sec. 4). This is also
	// why constraint (5) reads x_ij <= b_i p_ij: a relay may transmit more
	// packets than it receives to out-run link losses.
	SendWhenNonEmpty bool
	// CreditOnAnyReception credits a forwarder for every packet heard from
	// upstream rather than only innovative ones — MORE's TX-credit rule.
	// OMNC credits innovative packets only (its flow conservation (2) is
	// justified by "OMNC generates a new packet only upon a newly coming
	// packet that is innovative").
	CreditOnAnyReception bool
	// Exclude marks nodes that never transmit (oldMORE's pruned
	// forwarders).
	Exclude []bool
	// Gamma and RateIterations carry optimizer metadata into Stats.
	Gamma          float64
	RateIterations int
}

// Builder produces a policy for a selected subgraph.
type Builder func(sg *core.Subgraph, cfg Config) (*Policy, error)

// Protocol packages a forwarding discipline together with the runtime that
// executes it, so every protocol — OMNC, the MORE/oldMORE baselines, uncoded
// ETX routing — runs through one entry point. Its one constructor builds
// the sessions of a run on an Env: one for Run, N for RunMulti. The zero
// value is invalid; use OMNC, NewProtocol or ETX.
type Protocol struct {
	name  string
	build func(env *Env, specs []SessionSpec, cfg Config) ([]Session, error)
}

// NewProtocol wraps a policy builder as a Protocol executed by the shared
// coded runtime (node selection, generations, re-encoding forwarders,
// progressive decoding). Each session gets its own policy from build.
func NewProtocol(name string, build Builder) Protocol {
	return perSession(name, func(env *Env, sp SessionSpec, cfg Config) (Session, error) {
		return attachPolicy(env, sp, cfg, build)
	})
}

// perSession is a Protocol whose sessions attach one by one, each on its
// own: no coordination across the sessions of a run.
func perSession(name string, attach func(env *Env, sp SessionSpec, cfg Config) (Session, error)) Protocol {
	return Protocol{name: name, build: func(env *Env, specs []SessionSpec, cfg Config) ([]Session, error) {
		out := make([]Session, len(specs))
		for i, sp := range specs {
			s, err := attach(env, sp, cfg)
			if err != nil {
				if env.exclusive {
					return nil, err
				}
				return nil, fmt.Errorf("protocol: session %d: %w", sp.ID, err)
			}
			out[i] = s
		}
		return out, nil
	}}
}

// Name returns the protocol's label.
func (p Protocol) Name() string { return p.name }

var errZeroProtocol = errors.New("protocol: zero Protocol value; use OMNC, NewProtocol or ETX")

// Run emulates one unicast session from src to dst under the protocol and
// returns its statistics. Every protocol runs the same way: the session
// owns a private Env over its selected subgraph, so all four compare like
// with like on one channel model.
func (p Protocol) Run(net *topology.Network, src, dst int, cfg Config) (*Stats, error) {
	if p.build == nil {
		return nil, errZeroProtocol
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sg, err := core.SelectNodes(net, src, dst)
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(&subgraphMedium{net: net, sg: sg}, cfg)
	if err != nil {
		return nil, err
	}
	env.exclusive = true
	// The exclusive medium addresses nodes by subgraph-local index, so the
	// injector maps the plan's network IDs through the selection.
	if err := env.InstallFaults(cfg.Faults, net, sg.Nodes, cfg.Trace); err != nil {
		return nil, err
	}
	runs, err := p.build(env, []SessionSpec{{Src: src, Dst: dst, Subgraph: sg}}, cfg)
	if err != nil {
		return nil, err
	}
	s := runs[0]
	s.Start()
	env.Eng.Run(cfg.Duration)
	st := s.Finish(cfg.Duration)
	if err := s.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// Stats summarizes one emulated session.
type Stats struct {
	// Policy is the policy name.
	Policy string
	// Throughput is decoded bytes per second over the session.
	Throughput float64
	// GenerationsDecoded counts fully decoded generations.
	GenerationsDecoded int
	// Duration is the emulated time actually consumed.
	Duration float64
	// MeanQueue is the time-averaged broadcast queue length averaged over
	// the nodes involved in the transmission (Fig. 3's per-session point).
	MeanQueue float64
	// QueuePerNode is the time-averaged queue of every selected node.
	QueuePerNode []float64
	// NodeUtility is the fraction of selected forwarders (source included,
	// destination excluded) that sent at least one of the session's frames
	// (Fig. 4): completed on the private MAC in exclusive placement, handed
	// to the shared MAC by the session's port otherwise.
	NodeUtility float64
	// PathUtility is the fraction of available source-destination paths in
	// the forwarder DAG whose links all delivered at least one of the
	// session's frames (Fig. 4). One rule in both placements: a delivery
	// counts where the receiving port first sees the frame, before it is
	// judged stale, off-path or non-innovative.
	PathUtility float64
	// GenerationLatencies are the per-generation completion times in
	// seconds (generation start to full decode at the destination) — the
	// delay dimension that progressive decoding improves (Sec. 4).
	GenerationLatencies []float64
	// InnovativeReceived / TotalReceived measure packet-stream redundancy.
	InnovativeReceived, TotalReceived int64
	// Gamma is the optimizer's predicted throughput (OMNC only).
	Gamma float64
	// RateIterations is the rate controller's iteration count (OMNC only).
	RateIterations int
	// SelectedNodes is the size of the forwarder subgraph.
	SelectedNodes int
	// Report is the session's structured observability report, non-nil only
	// when Config.Report was set.
	Report *report.Report
}

// subgraphMedium exposes a selected subgraph (plus the underlying network's
// probabilities) as a sim.Medium in local indices.
type subgraphMedium struct {
	net *topology.Network
	sg  *core.Subgraph
}

func (m *subgraphMedium) Size() int { return m.sg.Size() }

func (m *subgraphMedium) Prob(i, j int) float64 {
	return m.net.Prob(m.sg.Nodes[i], m.sg.Nodes[j])
}

func (m *subgraphMedium) Neighbors(i int) []int { return m.sg.Neighbors(i) }

// NewMedium exposes a selected subgraph as a sim.Medium in local indices —
// the medium Protocol.Run gives each session — for measurements of the MAC
// in isolation (the benchmark's probes are its only caller).
func NewMedium(net *topology.Network, sg *core.Subgraph) sim.Medium {
	return &subgraphMedium{net: net, sg: sg}
}

// ackLatency estimates the uncoded ACK's best-path trip time: one reliable
// control packet per hop of the minimum-ETX path, each hop costing
// ETX * size/C expected air time.
func ackLatency(sg *core.Subgraph, cfg Config) float64 {
	costs := make([]float64, len(sg.Links))
	for i, l := range sg.Links {
		costs[i] = 1 / l.Prob
	}
	// The ACK travels dst -> src, but the ETX cost is symmetric over the
	// DAG links; use the forward path's ETX.
	_, etx, ok := graph.ShortestPath(sg.ForwardGraph(costs), sg.Src, sg.Dst)
	if !ok {
		return 0
	}
	return etx * float64(cfg.AckSize) / cfg.Capacity
}

// UncappedRates returns a rate-cap vector that lets every node contend
// freely (MORE and oldMORE have no rate control).
func UncappedRates(n int) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = math.Inf(1)
	}
	return caps
}
