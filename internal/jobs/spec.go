// Package jobs is the experiment service core: a versioned, JSON-round-
// trippable Spec naming one experiment, a Validate that rejects nonsense
// before any CPU is spent, and a Run dispatcher that executes the Spec over
// the internal/experiments runners. Every surface — the four CLIs, the
// omnc-serve daemon, CI smoke jobs and tests — drives this one path, so a
// figure submitted over HTTP lands byte-identical artifacts to the same
// figure run from a shell.
//
// A Spec is mapped onto the experiments layer once (Spec.Config; the sweep
// kinds wrap it in their axes), and its defaults are written once (Defaults):
// the runners fill from that table, Hash folds onto it, and the CLIs bind
// their flags to the fields of a Spec seeded from it.
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
	"omnc/internal/core"
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
// default Defaults lists for the kind" — the table the runners fill from,
// Hash folds onto and the CLIs show in -h — so a minimal
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
	// paper's deployment and the lossy PHY (~0.58).
	Nodes       int     `json:"nodes,omitempty"`
	Density     float64 `json:"density,omitempty"`
	MeanQuality float64 `json:"mean_quality,omitempty"`

	// Full selects the paper scale for every simulated kind (300 sessions x
	// 800 s, 1 KB blocks; the schemes kind keeps its own generation shape)
	// and the deeper trial count for multi; the default is the laptop scale.
	Full bool `json:"full,omitempty"`
	// Sessions overrides the session count (comparison) or caps the sweep
	// width (drift/multi/faults).
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
	// random endpoints under the hop constraint.
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`

	// Faults schedules deterministic churn on the session (KindSession
	// only — the sweep kinds draw their own plans).
	Faults *faults.Plan `json:"faults,omitempty"`

	// Report collects the per-session observability reports (kinds
	// comparison and session; the others produce none and reject it). On a
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

	// Rate, GenerationSize and BlockSize parameterize KindLoopback (see
	// Defaults).
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

// Defaults returns the values the zero fields of a Spec of the given kind and
// scale stand for. It is the only table of default numbers above the
// experiments layer: withDefaults fills a Spec from it before anything is
// validated or run, normalized folds a Spec back onto it before hashing, and
// the CLIs seed their flags (and so their -h text) from it. The simulated
// kinds read the base experiment — experiments.QuickConfig, or PaperConfig
// at full scale — and loopback's four numbers are its own.
func Defaults(kind string, full bool) Spec {
	d := Spec{
		Version: SpecVersion, Kind: kind, Full: full,
		Trials: 1, Protocol: experiments.ProtoOMNC, MAC: "oracle", Scheme: "rlnc", Field: "8",
	}
	if kind == KindLoopback {
		d.Rate, d.GenerationSize, d.BlockSize, d.Duration = 200_000, 8, 64, 2
		return d
	}
	base := experiments.QuickConfig(0)
	if full {
		base = experiments.PaperConfig(0)
	}
	d.Nodes, d.Density, d.Sessions = base.Nodes, base.Density, base.Sessions
	d.MinHops, d.MaxHops = base.MinHops, base.MaxHops
	d.Duration, d.Capacity, d.CBRRate = base.Duration, base.Capacity, base.CBRRate
	return d
}

// applyDefaults walks every field that has a default: filling replaces a
// zero field by the kind's default, folding replaces a spelled-out default
// by zero. One field list serves both directions, so the runners and the
// content address cannot disagree about what a default is.
func (s *Spec) applyDefaults(fold bool) {
	d := Defaults(s.Kind, s.Full)
	defaultField(&s.Nodes, d.Nodes, fold)
	defaultField(&s.Density, d.Density, fold)
	defaultField(&s.Sessions, d.Sessions, fold)
	defaultField(&s.MinHops, d.MinHops, fold)
	defaultField(&s.MaxHops, d.MaxHops, fold)
	defaultField(&s.Duration, d.Duration, fold)
	defaultField(&s.Capacity, d.Capacity, fold)
	defaultField(&s.CBRRate, d.CBRRate, fold)
	defaultField(&s.Trials, d.Trials, fold)
	defaultField(&s.Protocol, d.Protocol, fold)
	defaultField(&s.MAC, d.MAC, fold)
	defaultField(&s.Scheme, d.Scheme, fold)
	defaultField(&s.Field, d.Field, fold)
	defaultField(&s.Rate, d.Rate, fold)
	defaultField(&s.GenerationSize, d.GenerationSize, fold)
	defaultField(&s.BlockSize, d.BlockSize, fold)
}

func defaultField[T comparable](field *T, def T, fold bool) {
	var zero T
	switch {
	case fold && *field == def:
		*field = zero
	case !fold && *field == zero:
		*field = def
	}
}

// withDefaults returns the Spec with every defaulted field spelled out —
// the form Validate checks and the runners read.
func (s Spec) withDefaults() Spec {
	s.applyDefaults(false)
	return s
}

// normalized returns the copy of the Spec that feeds the content address:
// order-insensitive lists sorted and spelled-out defaults folded to their
// zero forms. Only rewrites proven computation-invariant belong here —
// every comparison protocol runs from the same per-session seed and the
// artifacts serialize protocols in sorted order, so list order cannot
// change a landed byte, and a folded default is refilled to the same value
// before anything runs.
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
	n.applyDefaults(true)
	return n
}

// Validate checks the Spec before any topology is generated, so a rejected
// job fails at submit time with the reason. A field the kind cannot honour is
// rejected rather than dropped: it would otherwise move the content address
// without moving a landed byte.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("jobs: spec version %d, want %d", s.Version, SpecVersion)
	}
	if !slices.Contains(Kinds(), s.Kind) {
		return fmt.Errorf("jobs: unknown kind %q (want one of %v)", s.Kind, Kinds())
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
	d := s.withDefaults()
	scheme, err := coding.ParseScheme(d.Scheme)
	if err != nil {
		return err
	}
	if err := coding.ValidateRedundancy(s.Redundancy); err != nil {
		return err
	}
	field, err := coding.ParseField(d.Field)
	if err != nil {
		return err
	}
	if scheme == coding.SchemeRS && field != coding.Field8 {
		return fmt.Errorf("%w: scheme rs codes over GF(2^8) only", coding.ErrInvalidField)
	}
	if _, err := d.mac(); err != nil {
		return err
	}
	if s.Report && s.Kind != KindComparison && s.Kind != KindSession {
		return fmt.Errorf("jobs: kind %q keeps no session reports; report applies to comparison and session jobs", s.Kind)
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
			if _, err := experiments.Protocol(p, core.Options{}); err != nil {
				return fmt.Errorf("jobs: %w", err)
			}
		}
	case KindSchemes:
		if scheme != coding.SchemeRLNC || s.Redundancy != 0 || field != coding.Field8 {
			return fmt.Errorf("jobs: the schemes kind sweeps every scheme and redundancy itself, over GF(2^8) (its Reed-Solomon cells code over no other field); scheme, redundancy and field do not apply")
		}
	case KindSession:
		if _, err := experiments.Protocol(d.Protocol, core.Options{}); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		if (s.Src == nil) != (s.Dst == nil) {
			return fmt.Errorf("jobs: src and dst must be set together")
		}
		if s.Src != nil && (*s.Src < 0 || *s.Dst < 0) {
			return fmt.Errorf("jobs: negative endpoint")
		}
		if s.Report && d.Trials > 1 {
			return fmt.Errorf("jobs: a report captures a single session; it cannot be combined with %d trials", d.Trials)
		}
		if s.Trace && d.Trials > 1 {
			return fmt.Errorf("jobs: a trace captures a single session; it cannot be combined with %d trials", d.Trials)
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
// kind reports no incremental progress.
func (s Spec) Units() int {
	switch s.Kind {
	case KindComparison:
		return s.Config().Sessions
	case KindDrift:
		dc := s.driftConfig()
		return len(dc.Jitters) * dc.Base.Sessions
	case KindMulti:
		mc := s.MultiConfig()
		return len(mc.SessionCounts) * mc.Trials
	case KindFaults:
		fc := s.FaultsConfig()
		return fc.Base.Sessions * len(fc.ChurnRates)
	case KindSchemes:
		return s.schemesConfig().CellCount()
	case KindSession, KindLoopback:
		return s.withDefaults().Trials
	default:
		return 0
	}
}

// scheme, field and mac parse the coding scheme, coefficient field and
// channel model of a Spec whose defaults are filled. Validate has vetted all
// three by the time a runner asks.
func (s Spec) scheme() coding.Scheme {
	v, err := coding.ParseScheme(s.Scheme)
	if err != nil {
		panic(fmt.Sprintf("jobs: scheme %q passed Validate but not ParseScheme: %v", s.Scheme, err))
	}
	return v
}

func (s Spec) field() coding.Field {
	v, err := coding.ParseField(s.Field)
	if err != nil {
		panic(fmt.Sprintf("jobs: field %q passed Validate but not ParseField: %v", s.Field, err))
	}
	return v
}

func (s Spec) mac() (sim.Mode, error) {
	switch s.MAC {
	case "oracle":
		return sim.ModeOracle, nil
	case "csma":
		return sim.ModeCSMA, nil
	default:
		return sim.ModeOracle, fmt.Errorf("jobs: unknown mac %q (want oracle or csma)", s.MAC)
	}
}

// Config maps the Spec onto the base experiment it describes: the scale,
// then every filled field, then the figures' side effects. It is the one
// place a Spec becomes an experiments.Config — every simulated kind runs
// from it, and the CLIs print their preambles from it.
func (s Spec) Config() experiments.Config {
	d := s.withDefaults()
	cfg := experiments.QuickConfig(d.Seed)
	if d.Full {
		cfg = experiments.PaperConfig(d.Seed)
	}
	cfg.Nodes, cfg.Density, cfg.MeanQuality = d.Nodes, d.Density, d.MeanQuality
	cfg.Sessions, cfg.MinHops, cfg.MaxHops = d.Sessions, d.MinHops, d.MaxHops
	cfg.Duration, cfg.Capacity = d.Duration, d.Capacity
	// The Spec reserves 0 for the default rate and spells a backlogged
	// source negative; the emulation spells backlogged 0.
	cfg.CBRRate = max(d.CBRRate, 0)
	cfg.Protocols = d.Protocols
	for _, f := range d.Figures {
		if f == "2r" && cfg.MeanQuality == 0 {
			cfg.MeanQuality = 0.91
		}
		if f == "lpgap" {
			cfg.SolveLPGap = true
		}
	}
	cfg.Scheme, cfg.Redundancy = d.scheme(), d.Redundancy
	// A wider field doubles the coefficient bytes; the air frame carries
	// the full coefficient vector plus the 1 KB payload.
	cfg.Coding.Field = d.field()
	cfg.AirPacketSize = cfg.Coding.CoeffBytes() + 1024
	cfg.MAC, _ = d.mac()
	cfg.Workers, cfg.EngineWorkers, cfg.Report = d.Workers, d.EngineWorkers, d.Report
	return cfg
}

// driftConfig is the sweep the drift kind runs: at most 8 sessions under
// five jitter levels, three epochs each.
func (s Spec) driftConfig() experiments.DriftSweepConfig {
	base := s.Config()
	base.Sessions = min(base.Sessions, 8)
	// Shorter generations keep per-epoch throughput measurable.
	base.Coding.GenerationSize = 16
	base.AirPacketSize = base.Coding.CoeffBytes() + 1024
	return experiments.DriftSweepConfig{
		Base:           base,
		Jitters:        []float64{0, 0.1, 0.2, 0.3, 0.4},
		Epochs:         3,
		ReinitOverhead: 5,
	}
}

// MultiConfig is the sweep the multi kind runs: session counts 1, 2, 4, 6
// capped by Sessions, two placements per count (three at full scale).
func (s Spec) MultiConfig() experiments.MultiConfig {
	mc := experiments.MultiConfig{Base: s.Config(), Trials: 2}
	if s.Full {
		mc.Trials = 3
	}
	for _, c := range []int{1, 2, 4, 6} {
		if c <= mc.Base.Sessions {
			mc.SessionCounts = append(mc.SessionCounts, c)
		}
	}
	return mc
}

// FaultsConfig is the sweep the faults kind runs: at most 4 placed sessions
// crossed with the churn ladder.
func (s Spec) FaultsConfig() experiments.FaultsConfig {
	fc := experiments.FaultsConfig{Base: s.Config(), ChurnRates: []float64{0, 2, 5}}
	fc.Base.Sessions = min(fc.Base.Sessions, 4)
	return fc
}

// schemesConfig is the sweep the schemes kind runs: the runner's default
// axes, with the chain sweep's own generation shape at every scale.
func (s Spec) schemesConfig() experiments.SchemesConfig {
	base := s.Config()
	base.Coding, base.AirPacketSize = coding.Params{}, 0
	return experiments.SchemesConfig{Base: base}
}

// SortedFigures returns the job's figures in stable order (the artifact
// order of the run directory).
func (s Spec) SortedFigures() []string {
	out := append([]string(nil), s.Figures...)
	sort.Strings(out)
	return out
}
