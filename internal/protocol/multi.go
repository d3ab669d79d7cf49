package protocol

import (
	"errors"
	"fmt"

	"omnc/internal/core"
	"omnc/internal/metrics"
	"omnc/internal/topology"
)

// ErrInvalidSession matches any rejected multi-unicast session list:
// out-of-range endpoints, a session whose source equals its destination, or
// duplicated (src, dst) pairs (which would silently contend with
// themselves). Match with errors.Is.
var ErrInvalidSession = errors.New("protocol: invalid session")

// Endpoints identifies one session of a multiple-unicast run.
type Endpoints struct {
	Src, Dst int
}

// MultiStats aggregates a multiple-unicast emulation.
type MultiStats struct {
	// PerSession holds each session's statistics, index-aligned with the
	// input endpoints.
	PerSession []*Stats
	// AggregateThroughput sums the per-session throughputs.
	AggregateThroughput float64
	// JainFairness is Jain's fairness index over the per-session
	// throughputs: 1 when every session gets the same rate, 1/n when one
	// session takes everything.
	JainFairness float64
	// SessionErrors is index-aligned with PerSession; non-nil entries carry
	// a session's abnormal termination (ErrDestinationDown when a fault plan
	// killed its destination for good). Nil when every session ran normally.
	SessionErrors []error
}

// ValidateSessions checks a multi-unicast session list against a network of
// n nodes; failures wrap ErrInvalidSession.
func ValidateSessions(n int, sessions []Endpoints) error {
	if len(sessions) == 0 {
		return fmt.Errorf("%w: no sessions", ErrInvalidSession)
	}
	seen := make(map[Endpoints]int, len(sessions))
	for i, s := range sessions {
		if s.Src < 0 || s.Src >= n || s.Dst < 0 || s.Dst >= n {
			return fmt.Errorf("%w: session %d endpoints (%d,%d) out of range [0,%d)",
				ErrInvalidSession, i, s.Src, s.Dst, n)
		}
		if s.Src == s.Dst {
			return fmt.Errorf("%w: session %d source equals destination (%d)",
				ErrInvalidSession, i, s.Src)
		}
		if j, dup := seen[s]; dup {
			return fmt.Errorf("%w: session %d duplicates session %d (%d,%d)",
				ErrInvalidSession, i, j, s.Src, s.Dst)
		}
		seen[s] = i
	}
	return nil
}

// RunMulti emulates several unicast sessions of one protocol sharing the
// channel simultaneously — the multiple-unicast scenario the paper's
// conclusion points to. All sessions attach to one Env (one event engine,
// one MAC over the full network), so they really do contend: a node
// forwarding for two sessions round-robins its air time between them and
// every receiver demultiplexes the common broadcast channel by session tag.
//
// The sessions are built by the protocol's one constructor, the one Run
// calls with a single session: OMNC solves the rates of all N jointly
// (core.RateControl), whose shared congestion prices divide each
// neighbourhood's capacity across sessions; MORE, oldMORE and ETX run their
// usual uncoordinated disciplines per session.
func RunMulti(net *topology.Network, sessions []Endpoints, proto Protocol, cfg Config) (*MultiStats, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateSessions(net.Size(), sessions); err != nil {
		return nil, err
	}
	specs := make([]SessionSpec, len(sessions))
	for i, s := range sessions {
		sg, err := core.SelectNodes(net, s.Src, s.Dst)
		if err != nil {
			return nil, fmt.Errorf("protocol: session %d: %w", i, err)
		}
		specs[i] = SessionSpec{ID: i, Src: s.Src, Dst: s.Dst, Subgraph: sg}
	}

	env, err := NewEnv(net, cfg)
	if err != nil {
		return nil, err
	}
	// The shared medium addresses nodes by network ID — the identity mapping.
	if err := env.InstallFaults(cfg.Faults, net, nil, cfg.Trace); err != nil {
		return nil, err
	}
	if proto.build == nil {
		return nil, errZeroProtocol
	}
	runs, err := proto.build(env, specs, cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range runs {
		s.Start()
	}
	env.Eng.Run(cfg.Duration)

	out := &MultiStats{PerSession: make([]*Stats, len(runs))}
	rates := make([]float64, len(runs))
	for i, s := range runs {
		st := s.Finish(cfg.Duration)
		out.PerSession[i] = st
		out.AggregateThroughput += st.Throughput
		rates[i] = st.Throughput
		if err := s.Err(); err != nil {
			if out.SessionErrors == nil {
				out.SessionErrors = make([]error, len(runs))
			}
			out.SessionErrors[i] = err
		}
	}
	out.JainFairness = metrics.JainIndex(rates)
	return out, nil
}
