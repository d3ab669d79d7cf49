// Package jobs is the experiment service core: a versioned, JSON-round-
// trippable Spec naming one experiment, a Validate that rejects nonsense
// before any CPU is spent, and a Run dispatcher that executes the Spec over
// the internal/experiments runners. Every surface — the four CLIs, the
// omnc-serve daemon, CI smoke jobs and tests — drives this one path, so a
// figure submitted over HTTP lands byte-identical artifacts to the same
// figure run from a shell.
//
// The package also houses the daemon's persistence: a crash-safe JSONL
// queue (queue.go) and a content-addressed results store (store.go).
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"omnc/internal/coding"
	"omnc/internal/experiments"
	"omnc/internal/faults"
	"omnc/internal/sim"
)

// SpecVersion is the Spec layout this build understands. Decode rejects
// anything else, so a stored queue survives upgrades loudly instead of
// silently reinterpreting old jobs.
const SpecVersion = 1

// Experiment kinds accepted by Spec.Kind. Each maps to one runner in
// run.go; together they cover everything the four CLIs can execute.
const (
	// KindComparison is the paper's Sec. 5 harness (figures 2l/2r/3/4 and
	// the LP-gap summary) — omnc-fig's comparison path.
	KindComparison = "comparison"
	// KindFig1 is the rate-control convergence trace (Fig. 1).
	KindFig1 = "fig1"
	// KindDrift is the link-quality drift sweep (omnc-fig -fig drift).
	KindDrift = "drift"
	// KindMulti is the multi-unicast scaling sweep (omnc-fig -fig multi).
	KindMulti = "multi"
	// KindFaults is the fault-churn sweep (omnc-fig -fig faults).
	KindFaults = "faults"
	// KindSchemes is the coding-scheme chain sweep (omnc-fig -fig schemes).
	KindSchemes = "schemes"
	// KindSession is a single unicast session, optionally replayed over
	// independent loss realizations — omnc-sim's path.
	KindSession = "session"
	// KindTopo generates and summarizes a deployment — omnc-topo's path.
	KindTopo = "topo"
	// KindLoopback runs OMNC over real UDP sockets on the loopback
	// interface — omnc-drift's path. Wall-clock bound, not deterministic.
	KindLoopback = "loopback"
)

// Kinds lists every accepted Spec.Kind, sorted. Validate accepts exactly
// this list; RunWithProgress dispatches each entry to its runner.
func Kinds() []string {
	return []string{
		KindComparison, KindDrift, KindFaults, KindFig1,
		KindLoopback, KindMulti, KindSchemes, KindSession, KindTopo,
	}
}

// Figures accepted by Spec.Figures for KindComparison.
var comparisonFigures = map[string]bool{"2l": true, "2r": true, "3": true, "4": true, "lpgap": true}

// Spec names one experiment completely: what to run, on what topology, with
// which protocol and coding strategy, under what fault plan, and how to
// parallelize it. The zero value of every optional field means "the
// documented default" — the same defaults the CLIs apply — so a minimal
// {"version":1,"kind":"fig1"} is a valid job. Specs round-trip through JSON
// bit-exactly and unknown fields are rejected (DisallowUnknownFields), so a
// typo'd field name fails the submit instead of silently running the wrong
// experiment.
type Spec struct {
	// Version must be SpecVersion.
	Version int `json:"version"`
	// Kind selects the experiment (see the Kind constants).
	Kind string `json:"kind"`
	// Seed makes the run reproducible; jobs with the same canonical Spec
	// land in the same content-addressed run directory.
	Seed int64 `json:"seed,omitempty"`

	// Nodes, Density and MeanQuality describe the random deployment
	// (kinds comparison/drift/multi/faults/session/topo). Zero keeps the
	// runner defaults (300 nodes, density 6, lossy PHY ~0.58).
	Nodes       int     `json:"nodes,omitempty"`
	Density     float64 `json:"density,omitempty"`
	MeanQuality float64 `json:"mean_quality,omitempty"`

	// Full selects the paper scale for comparison/drift/faults/schemes
	// (300 sessions x 800 s, 1 KB blocks) and the deeper trial count for
	// multi; the default is the laptop scale.
	Full bool `json:"full,omitempty"`
	// Sessions overrides the session count (comparison) or caps the sweep
	// width (drift/multi/faults) exactly like omnc-fig's -sessions.
	Sessions int `json:"sessions,omitempty"`
	// MinHops and MaxHops constrain endpoint placement.
	MinHops int `json:"min_hops,omitempty"`
	MaxHops int `json:"max_hops,omitempty"`
	// Duration is emulated seconds per session — except for KindLoopback,
	// where it is wall-clock seconds (default 2).
	Duration float64 `json:"duration,omitempty"`
	// Capacity is the channel capacity in bytes/second.
	Capacity float64 `json:"capacity,omitempty"`
	// CBRRate is the source workload rate in bytes/second. Zero keeps the
	// kind's default; a negative value means a backlogged (unbounded)
	// source, which the session kind's CLI spells -cbr 0.
	CBRRate float64 `json:"cbr_rate,omitempty"`
	// Trials replays the session (KindSession) or loopback run
	// (KindLoopback) under that many independent loss realizations.
	Trials int `json:"trials,omitempty"`

	// Figures selects which comparison views to render (2l, 2r, 3, 4,
	// lpgap). 2r implies the high-quality network and therefore cannot be
	// combined with the lossy-network figures in one job.
	Figures []string `json:"figures,omitempty"`

	// Protocol is the single protocol of a session job (omnc, more,
	// oldmore, etx; default omnc). Protocols restricts the comparison
	// kinds' protocol set (default: all four).
	Protocol  string   `json:"protocol,omitempty"`
	Protocols []string `json:"protocols,omitempty"`
	// MAC selects the channel model: "oracle" (default) or "csma".
	MAC string `json:"mac,omitempty"`

	// Scheme is the coding strategy: "rlnc" (default), "rlnc-e2e" or
	// "rs". Redundancy caps source emissions per generation as a factor of
	// the generation size (0 = rateless). Field selects the coefficient
	// field: "8" (GF(2^8), the default) or "16" (GF(2^16)).
	Scheme     string  `json:"scheme,omitempty"`
	Redundancy float64 `json:"redundancy,omitempty"`
	Field      string  `json:"field,omitempty"`

	// Src and Dst pin the session endpoints (KindSession); nil picks
	// random endpoints under the hop constraint, exactly like omnc-sim.
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`

	// Faults schedules deterministic churn on the session (KindSession
	// only — the sweep kinds draw their own plans).
	Faults *faults.Plan `json:"faults,omitempty"`

	// Report collects the per-session observability report; on a
	// single-trial session job the report lands as a report.json artifact.
	Report bool `json:"report,omitempty"`
	// Trace records the session's protocol events as a trace.jsonl
	// artifact (KindSession, single trial only).
	Trace bool `json:"trace,omitempty"`

	// Workers bounds concurrent session emulations (0 = all cores);
	// EngineWorkers selects the per-session parallel event engine (0 =
	// serial). Results are bit-identical for every value of either.
	Workers       int `json:"workers,omitempty"`
	EngineWorkers int `json:"engine_workers,omitempty"`

	// Rate, GenerationSize and BlockSize parameterize KindLoopback
	// (defaults 200000 B/s, 8 blocks, 64 bytes — omnc-drift's defaults).
	Rate           float64 `json:"rate,omitempty"`
	GenerationSize int     `json:"generation_size,omitempty"`
	BlockSize      int     `json:"block_size,omitempty"`
}

// Decode parses a Spec from JSON, rejecting unknown fields and validating
// the result. This is the only correct way to accept a Spec from the
// outside world.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jobs: spec: %w", err)
	}
	// A second document in the payload is a smuggled job, not whitespace.
	if dec.More() {
		return Spec{}, fmt.Errorf("jobs: spec: trailing data after the JSON document")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Encode serializes the Spec canonically (the inverse of Decode). Hash
// feeds a normalized copy of the Spec through the same encoding to form the
// run directory's content address.
func (s Spec) Encode() ([]byte, error) {
	buf, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("jobs: spec: %w", err)
	}
	return buf, nil
}

// Hash returns the Spec's content address: a hex SHA-256 prefix of the
// normalized canonical encoding. Two Specs naming the same computation —
// regardless of list order or spelled-out defaults — hash alike, so they
// share one run directory.
func (s Spec) Hash() string {
	buf, err := s.normalized().Encode()
	if err != nil {
		// Spec is a plain struct of marshalable fields; this cannot happen.
		panic(fmt.Sprintf("jobs: hash: %v", err))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// normalized returns the copy of the Spec that feeds the content address:
// order-insensitive lists sorted and spelled-out defaults folded to their
// zero forms. Only rewrites proven computation-invariant belong here —
// every comparison protocol runs from the same per-session seed and the
// artifacts serialize protocols in sorted order, so list order cannot
// change a landed byte.
func (s Spec) normalized() Spec {
	n := s
	if len(s.Figures) > 0 {
		n.Figures = s.SortedFigures()
	}
	if len(s.Protocols) > 0 {
		ps := append([]string(nil), s.Protocols...)
		sort.Strings(ps)
		// The full protocol set spelled out is the nil default.
		if len(ps) == 4 && ps[0] == experiments.ProtoETX && ps[1] == experiments.ProtoMORE &&
			ps[2] == experiments.ProtoOldMORE && ps[3] == experiments.ProtoOMNC {
			ps = nil
		}
		n.Protocols = ps
	}
	if n.Scheme == "rlnc" {
		n.Scheme = "" // schemeName: "" already means rlnc
	}
	if n.Field == "8" {
		n.Field = "" // field: "" already means GF(2^8)
	}
	if n.Protocol == experiments.ProtoOMNC {
		n.Protocol = "" // runSession: "" already means omnc
	}
	if n.MAC == "oracle" {
		n.MAC = "" // mac: "" already means oracle
	}
	if n.Trials == 1 {
		n.Trials = 0 // trials: both mean a single run
	}
	return n
}

// Validate checks the Spec against the same rules the CLIs enforce flag by
// flag, so a rejected job fails at submit time with the reason — before any
// topology is generated.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("jobs: spec version %d, want %d", s.Version, SpecVersion)
	}
	if !slices.Contains(Kinds(), s.Kind) {
		return fmt.Errorf("jobs: unknown kind %q (want one of %v)", s.Kind, Kinds())
	}
	if _, err := coding.ParseScheme(s.schemeName()); err != nil {
		return err
	}
	if err := coding.ValidateRedundancy(s.Redundancy); err != nil {
		return err
	}
	f, err := coding.ParseField(s.Field)
	if err != nil {
		return err
	}
	if s.scheme() == coding.SchemeRS && f != coding.Field8 {
		return fmt.Errorf("%w: scheme rs codes over GF(2^8) only", coding.ErrInvalidField)
	}
	if _, err := s.mac(); err != nil {
		return err
	}
	if s.Trials < 0 {
		return fmt.Errorf("jobs: trials %d must not be negative", s.Trials)
	}
	if s.Nodes < 0 || s.Sessions < 0 || s.MinHops < 0 || s.MaxHops < 0 {
		return fmt.Errorf("jobs: negative count in spec")
	}
	if s.Duration < 0 || s.Capacity < 0 || s.Density < 0 || s.Redundancy < 0 {
		return fmt.Errorf("jobs: negative magnitude in spec")
	}
	if s.MeanQuality < 0 || s.MeanQuality > 1 {
		return fmt.Errorf("jobs: mean_quality %v outside [0, 1]", s.MeanQuality)
	}
	switch s.Kind {
	case KindComparison:
		if len(s.Figures) == 0 {
			return fmt.Errorf("jobs: comparison jobs need at least one figure (2l, 2r, 3, 4, lpgap)")
		}
		hq := false
		for _, f := range s.Figures {
			if !comparisonFigures[f] {
				return fmt.Errorf("jobs: unknown figure %q (want 2l, 2r, 3, 4 or lpgap)", f)
			}
			if f == "2r" {
				hq = true
			}
		}
		if hq && len(s.Figures) > 1 {
			return fmt.Errorf("jobs: figure 2r runs on the high-quality network and cannot share a job with lossy-network figures")
		}
		for _, p := range s.Protocols {
			if !knownProtocol(p) {
				return fmt.Errorf("jobs: unknown protocol %q", p)
			}
		}
	case KindSession:
		if p := s.Protocol; p != "" && !knownProtocol(p) {
			return fmt.Errorf("jobs: unknown protocol %q", p)
		}
		if (s.Src == nil) != (s.Dst == nil) {
			return fmt.Errorf("jobs: src and dst must be set together")
		}
		if s.Src != nil && (*s.Src < 0 || *s.Dst < 0) {
			return fmt.Errorf("jobs: negative endpoint")
		}
		if s.Report && s.trials() > 1 {
			return fmt.Errorf("jobs: a report captures a single session; it cannot be combined with %d trials", s.trials())
		}
		if s.Trace && s.trials() > 1 {
			return fmt.Errorf("jobs: a trace captures a single session; it cannot be combined with %d trials", s.trials())
		}
	case KindLoopback:
		if s.GenerationSize < 0 || s.BlockSize < 0 || s.Rate < 0 {
			return fmt.Errorf("jobs: negative loopback parameter")
		}
	}
	if s.Faults != nil {
		if s.Kind != KindSession {
			return fmt.Errorf("jobs: a fault plan applies to session jobs only (kind %q draws its own)", s.Kind)
		}
		if err := s.Faults.Validate(0); err != nil {
			return err
		}
	}
	return nil
}

// Units returns how many progress units the job will report — the total a
// metrics.Progress watching the run should be created with. Zero means the
// kind reports no incremental progress. The counts mirror exactly what the
// CLIs pass to metrics.NewProgress for the same flags.
func (s Spec) Units() int {
	switch s.Kind {
	case KindComparison:
		return s.comparisonConfig().Sessions
	case KindMulti:
		counts, trials := s.multiPlan()
		return len(counts) * trials
	case KindFaults:
		sessions, churn := s.faultsPlan()
		return sessions * len(churn)
	case KindSchemes:
		return s.schemesConfig(nil).CellCount()
	case KindSession, KindLoopback:
		return s.trials()
	default:
		return 0
	}
}

// trials normalizes the replay count (0 means one run).
func (s Spec) trials() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

// schemeName normalizes the coding-scheme name ("" means the default).
func (s Spec) schemeName() string {
	if s.Scheme == "" {
		return "rlnc"
	}
	return s.Scheme
}

// scheme parses the (already validated) coding scheme.
func (s Spec) scheme() coding.Scheme {
	v, err := coding.ParseScheme(s.schemeName())
	if err != nil {
		panic(fmt.Sprintf("jobs: scheme %q passed Validate but not ParseScheme: %v", s.Scheme, err))
	}
	return v
}

// field parses the (already validated) coefficient field.
func (s Spec) field() coding.Field {
	v, err := coding.ParseField(s.Field)
	if err != nil {
		panic(fmt.Sprintf("jobs: field %q passed Validate but not ParseField: %v", s.Field, err))
	}
	return v
}

// mac parses the channel model name.
func (s Spec) mac() (sim.Mode, error) {
	switch s.MAC {
	case "", "oracle":
		return sim.ModeOracle, nil
	case "csma":
		return sim.ModeCSMA, nil
	default:
		return sim.ModeOracle, fmt.Errorf("jobs: unknown mac %q (want oracle or csma)", s.MAC)
	}
}

func knownProtocol(name string) bool {
	switch name {
	case experiments.ProtoOMNC, experiments.ProtoMORE, experiments.ProtoOldMORE, experiments.ProtoETX:
		return true
	}
	return false
}

// comparisonConfig maps the Spec onto the Sec. 5 harness exactly the way
// omnc-fig maps its flags: Quick or Paper scale, then the overrides.
func (s Spec) comparisonConfig() experiments.Config {
	cfg := experiments.QuickConfig(s.Seed)
	if s.Full {
		cfg = experiments.PaperConfig(s.Seed)
	}
	if s.Nodes > 0 {
		cfg.Nodes = s.Nodes
	}
	if s.Density > 0 {
		cfg.Density = s.Density
	}
	if s.Sessions > 0 {
		cfg.Sessions = s.Sessions
	}
	if s.MinHops > 0 {
		cfg.MinHops = s.MinHops
	}
	if s.MaxHops > 0 {
		cfg.MaxHops = s.MaxHops
	}
	if s.Duration > 0 {
		cfg.Duration = s.Duration
	}
	if s.Capacity > 0 {
		cfg.Capacity = s.Capacity
	}
	if s.CBRRate != 0 {
		cfg.CBRRate = rateOrBacklogged(s.CBRRate)
	}
	if len(s.Protocols) > 0 {
		cfg.Protocols = append([]string(nil), s.Protocols...)
	}
	cfg.MeanQuality = s.MeanQuality
	for _, f := range s.Figures {
		if f == "2r" && cfg.MeanQuality == 0 {
			cfg.MeanQuality = 0.91
		}
		if f == "lpgap" {
			cfg.SolveLPGap = true
		}
	}
	cfg.Scheme = s.scheme()
	cfg.Redundancy = s.Redundancy
	if f := s.field(); f != cfg.Coding.Field {
		// A wider field doubles the coefficient bytes; keep the air frame
		// carrying the full coefficient vector plus the 1 KB payload.
		cfg.Coding.Field = f
		cfg.AirPacketSize = cfg.Coding.CoeffBytes() + 1024
	}
	cfg.Workers = s.Workers
	cfg.EngineWorkers = s.EngineWorkers
	cfg.Report = s.Report
	mac, _ := s.mac()
	cfg.MAC = mac
	return cfg
}

// multiPlan mirrors omnc-fig's multiFig: the session counts swept (capped
// by Sessions) and the trial count (3 at full scale, 2 otherwise).
func (s Spec) multiPlan() (counts []int, trials int) {
	counts = []int{1, 2, 4, 6}
	if s.Sessions > 0 && s.Sessions < counts[len(counts)-1] {
		kept := counts[:0]
		for _, c := range counts {
			if c <= s.Sessions {
				kept = append(kept, c)
			}
		}
		counts = kept
	}
	trials = 2
	if s.Full {
		trials = 3
	}
	return counts, trials
}

// faultsPlan mirrors omnc-fig's faultsFig: session count (capped at 4) and
// the churn ladder.
func (s Spec) faultsPlan() (sessions int, churn []float64) {
	base := s.comparisonConfig()
	sessions = base.Sessions
	if sessions > 4 {
		sessions = 4
	}
	return sessions, []float64{0, 2, 5}
}

// schemesConfig mirrors omnc-fig's schemesFig mapping.
func (s Spec) schemesConfig(progress *progressHandle) experiments.SchemesConfig {
	base := s.comparisonConfig()
	sc := experiments.SchemesConfig{
		Duration:      base.Duration,
		Capacity:      base.Capacity,
		CBRRate:       base.CBRRate,
		MAC:           base.MAC,
		RateOptions:   base.RateOptions,
		Seed:          base.Seed,
		Workers:       base.Workers,
		EngineWorkers: base.EngineWorkers,
	}
	if progress != nil {
		sc.Progress = progress.p
		sc.Ctx = progress.ctx
	}
	return sc
}

// rateOrBacklogged maps the Spec's CBR encoding onto the runners': negative
// means backlogged, which the emulation spells 0.
func rateOrBacklogged(r float64) float64 {
	if r < 0 {
		return 0
	}
	return r
}

// EffectiveComparison returns the experiments.Config the comparison-family
// kinds will run — scale selection, overrides and figure side effects
// applied. CLIs use it to print accurate preambles without duplicating the
// mapping.
func (s Spec) EffectiveComparison() experiments.Config {
	return s.comparisonConfig()
}

// MultiPlan returns the session counts and per-count trials the multi kind
// will sweep.
func (s Spec) MultiPlan() (counts []int, trials int) {
	return s.multiPlan()
}

// FaultsPlan returns the session count and churn ladder the faults kind
// will sweep.
func (s Spec) FaultsPlan() (sessions int, churn []float64) {
	return s.faultsPlan()
}

// SortedFigures returns the job's figures in stable order (the artifact
// order of the run directory).
func (s Spec) SortedFigures() []string {
	out := append([]string(nil), s.Figures...)
	sort.Strings(out)
	return out
}
