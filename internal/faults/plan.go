// Package faults is the deterministic fault-injection subsystem: a Plan is
// an ordered set of timed fault events — node crashes and recoveries, link
// flaps (hard outages), bursty-loss episodes (a two-state Gilbert–Elliott
// overlay on the Bernoulli PHY) and network-wide link-quality drift — that
// an Injector executes as first-class discrete events on a sim.Engine. The
// protocol layer subscribes to the injector's topology epochs and
// re-optimizes mid-session: OMNC re-runs its rate solve, MORE/oldMORE
// recompute credits, ETX re-routes, and a session whose destination dies for
// good finishes with a typed error instead of hanging.
//
// Everything is reproducible: a plan fires at fixed simulated times, and the
// only randomness — Gilbert–Elliott sojourn times, drift draws and
// RandomPlan sampling — is seeded through internal/seedmix streams.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"omnc/internal/report"
	"omnc/internal/seedmix"
)

// Kind classifies fault events.
type Kind string

// Fault-event kinds accepted in input plans.
const (
	// NodeCrash removes a node from the network: its transmitter falls
	// silent mid-frame, its receiver stops absorbing deliveries, and its
	// volatile protocol state (buffered packets, decoder rank) is lost.
	NodeCrash Kind = "crash"
	// NodeRecover brings a crashed node back with empty volatile state.
	NodeRecover Kind = "recover"
	// LinkFlap takes the undirected link (From, To) down hard for Duration
	// seconds: no delivery in either direction, though the radios still
	// interfere.
	LinkFlap Kind = "flap"
	// BurstLoss runs a two-state Gilbert–Elliott episode on the undirected
	// link (From, To) for Duration seconds: the link alternates between a
	// Good state (nominal Bernoulli reception) and a Bad state whose
	// reception probability is multiplied by BadFactor, with exponential
	// sojourn times of mean MeanGood and MeanBad seconds.
	BurstLoss Kind = "burst"
	// QualityDrift re-draws every undirected link's reception probability
	// around its current value (p·U[1−Jitter, 1+Jitter], clamped to
	// [0.01, 1]; successive drifts compound) and silences every session for
	// Duration seconds — the re-initiation dead time of the paper's Sec. 4 —
	// after which each session re-plans on the new qualities.
	QualityDrift Kind = "drift"
)

// Kinds synthesized by the Injector when an episode ends. They appear in
// subscriber notifications and traces but are invalid in input plans.
const (
	LinkRestore Kind = "flap-end"
	BurstEnd    Kind = "burst-end"
	DriftEnd    Kind = "drift-end"
)

// Tally counts one event a live session processed into its report summary.
// Synthesized end events re-solve rates but are not new faults, so only the
// plan's own kinds count.
func (k Kind) Tally(s *report.FaultSummary) {
	switch k {
	case NodeCrash:
		s.Crashes++
	case NodeRecover:
		s.Recoveries++
	case LinkFlap:
		s.LinkFlaps++
	case BurstLoss:
		s.Bursts++
	case QualityDrift:
		s.Drifts++
	}
}

// Event is one timed fault.
type Event struct {
	// At is the simulated time in seconds the event fires.
	At float64 `json:"at"`
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// Node is the network node ID of a crash or recover.
	Node int `json:"node,omitempty"`
	// From and To are the endpoints of a link flap or burst episode; the
	// link is undirected (both directions are affected).
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Duration is the episode length in seconds (flap and burst), or the
	// re-initiation dead time of a drift (zero allowed there).
	Duration float64 `json:"dur,omitempty"`
	// Jitter is a drift's multiplicative perturbation magnitude, in [0, 1)
	// (0.3 re-draws every link within ±30 % of its current quality).
	Jitter float64 `json:"jitter,omitempty"`
	// BadFactor multiplies the link's reception probability while a burst
	// episode sits in the Bad state; 0 selects the default 0.05.
	BadFactor float64 `json:"bad_factor,omitempty"`
	// MeanGood and MeanBad are the mean Gilbert–Elliott sojourn times in
	// seconds; 0 selects the defaults (0.5 s good, 0.1 s bad).
	MeanGood float64 `json:"mean_good,omitempty"`
	MeanBad  float64 `json:"mean_bad,omitempty"`
}

// Plan is an ordered fault schedule. The zero value (no events) is valid and
// injects nothing.
type Plan struct {
	// Seed drives the plan's random processes — the Gilbert–Elliott sojourn
	// draws of burst episodes and the per-link draws of drift events — each
	// through its own derived stream.
	Seed int64 `json:"seed,omitempty"`
	// Events fire in order; times must be non-decreasing.
	Events []Event `json:"events"`
}

// DriftSeed is the topology.PerturbQuality seed of the plan's k-th drift
// event (counting from 0): drift k turns the current network nw into
// nw.PerturbQuality(p.DriftSeed(k), jitter), which is how an analysis
// reconstructs the link qualities a session ran on.
func (p *Plan) DriftSeed(k int) int64 {
	return seedmix.Derive(p.Seed, streamDrift, int64(k))
}

// ErrInvalidPlan matches any rejected fault plan: malformed JSON,
// out-of-order or overlapping events, out-of-range nodes, non-finite times.
// Match with errors.Is.
var ErrInvalidPlan = errors.New("faults: invalid plan")

// linkKey returns the canonical (unordered) key of a link.
func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Validate checks the plan's structure. nodes is the network size; pass 0 to
// skip the range checks (DecodePlan does, since the target network is not
// known yet). Failures wrap ErrInvalidPlan.
//
// Rules: event times are finite, non-negative and non-decreasing; a node may
// only crash while up and recover while down (overlapping or unmatched
// crash/recover pairs are rejected); flap and burst episodes need a positive
// finite Duration and may not overlap an earlier episode on the same
// undirected link; Gilbert–Elliott parameters are finite, with BadFactor in
// [0, 1); a drift needs Jitter in [0, 1) and a finite non-negative Duration.
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	bad := func(i int, format string, args ...interface{}) error {
		return fmt.Errorf("%w: event %d: %s", ErrInvalidPlan, i, fmt.Sprintf(format, args...))
	}
	checkNode := func(i, v int, what string) error {
		if v < 0 || (nodes > 0 && v >= nodes) {
			return bad(i, "%s %d out of range [0,%d)", what, v, nodes)
		}
		return nil
	}
	prev := 0.0
	down := make(map[int]bool)
	episodeEnd := make(map[[2]int]float64)
	for i, ev := range p.Events {
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return bad(i, "time %v is not a finite non-negative number", ev.At)
		}
		if ev.At < prev {
			return bad(i, "time %v precedes event %d at %v (events must be ordered)", ev.At, i-1, prev)
		}
		prev = ev.At
		switch ev.Kind {
		case NodeCrash:
			if err := checkNode(i, ev.Node, "node"); err != nil {
				return err
			}
			if down[ev.Node] {
				return bad(i, "node %d crashes while already down (overlapping crash)", ev.Node)
			}
			down[ev.Node] = true
		case NodeRecover:
			if err := checkNode(i, ev.Node, "node"); err != nil {
				return err
			}
			if !down[ev.Node] {
				return bad(i, "node %d recovers while up (unmatched recover)", ev.Node)
			}
			delete(down, ev.Node)
		case LinkFlap, BurstLoss:
			if err := checkNode(i, ev.From, "link endpoint"); err != nil {
				return err
			}
			if err := checkNode(i, ev.To, "link endpoint"); err != nil {
				return err
			}
			if ev.From == ev.To {
				return bad(i, "link endpoints coincide (%d)", ev.From)
			}
			if !(ev.Duration > 0) || math.IsInf(ev.Duration, 0) {
				return bad(i, "episode duration %v must be positive and finite", ev.Duration)
			}
			key := linkKey(ev.From, ev.To)
			if end, busy := episodeEnd[key]; busy && ev.At < end {
				return bad(i, "episode on link (%d,%d) overlaps one ending at %v", ev.From, ev.To, end)
			}
			episodeEnd[key] = ev.At + ev.Duration
			if ev.Kind == BurstLoss {
				if ev.BadFactor < 0 || ev.BadFactor >= 1 || math.IsNaN(ev.BadFactor) {
					return bad(i, "bad factor %v outside [0,1)", ev.BadFactor)
				}
				if ev.MeanGood < 0 || math.IsNaN(ev.MeanGood) || math.IsInf(ev.MeanGood, 0) {
					return bad(i, "mean good sojourn %v must be finite and non-negative", ev.MeanGood)
				}
				if ev.MeanBad < 0 || math.IsNaN(ev.MeanBad) || math.IsInf(ev.MeanBad, 0) {
					return bad(i, "mean bad sojourn %v must be finite and non-negative", ev.MeanBad)
				}
			}
		case QualityDrift:
			if !(ev.Jitter >= 0 && ev.Jitter < 1) {
				return bad(i, "drift jitter %v outside [0,1)", ev.Jitter)
			}
			if !(ev.Duration >= 0) || math.IsInf(ev.Duration, 0) {
				return bad(i, "drift dead time %v must be finite and non-negative", ev.Duration)
			}
		default:
			return bad(i, "unknown kind %q", ev.Kind)
		}
	}
	return nil
}

// DecodePlan parses a JSON fault plan and validates its structure (range
// checks against a concrete network happen at install time). It never
// panics; all failures wrap ErrInvalidPlan.
func DecodePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidPlan, err)
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// Encode serializes the plan as JSON (the inverse of DecodePlan).
func (p *Plan) Encode() ([]byte, error) {
	return json.Marshal(p)
}
