// Package sessionbench pins the session-benchmark scenarios shared by the
// Benchmark(Multi)Session* benchmarks, TestSessionAllocCeilings and the
// probes of ./benchmark, so all three measure exactly the same workload as
//
//	go test -bench='^BenchmarkSession' -benchmem
//
// Any change here shifts all of them at once; the allocation ceilings and
// the recorded history in EXPERIMENTS.md stay comparable only as long as
// this file does not change.
package sessionbench

import (
	"omnc"
	"omnc/internal/coding"
	"omnc/internal/protocol"
	"omnc/internal/topology"
)

// Scenario is one benchmarked session: a protocol with its fixed seed on
// the strip network.
type Scenario struct {
	// Name is the stable benchmark identifier ("SessionOMNC", ...), also
	// the Benchmark* suffix.
	Name string
	// Seed feeds the session RNG; each protocol keeps its own so the
	// recorded numbers are individually reproducible.
	Seed  int64
	Proto omnc.Protocol
}

// Scenarios lists the benchmarked protocols in recorded order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "SessionOMNC", Seed: 41, Proto: omnc.OMNC(omnc.RateOptions{})},
		{Name: "SessionMORE", Seed: 42, Proto: omnc.MORE()},
		{Name: "SessionETX", Seed: 43, Proto: omnc.ETX()},
	}
}

// SchemeScenario is one benchmarked coding-scheme session: the OMNC protocol
// on the strip network under a non-default coding strategy. The entries
// prove the strategy layer rides the pooled arena — their allocs/op must
// stay close to the default RLNC session's even though the Reed-Solomon
// encoder and the verbatim ForwardBuffer replace the random encoder and the
// Recoder on the hot path.
type SchemeScenario struct {
	// Name is the stable benchmark identifier ("SessionScheme/rs", ...),
	// also the Benchmark* suffix.
	Name       string
	Scheme     coding.Scheme
	Redundancy float64
}

// schemeSeed keeps every SchemeScenario on the same placement and loss
// process, so the entries differ only by strategy.
const schemeSeed = 71

// SchemeScenarios lists the benchmarked coding schemes; the rlnc entry is
// the reference the others are bounded against.
func SchemeScenarios() []SchemeScenario {
	return []SchemeScenario{
		{Name: "SessionScheme/rlnc", Scheme: coding.SchemeRLNC},
		{Name: "SessionScheme/rlnc-e2e", Scheme: coding.SchemeRLNCE2E},
		{Name: "SessionScheme/rs", Scheme: coding.SchemeRS},
	}
}

// SchemeConfig is Config under an explicit coding scheme and redundancy.
func SchemeConfig(scheme coding.Scheme, redundancy float64) protocol.Config {
	cfg := Config(schemeSeed)
	cfg.Scheme = scheme
	cfg.Redundancy = redundancy
	return cfg
}

// Run executes one scheme session on nw.
func (s SchemeScenario) Run(nw *topology.Network, src, dst int) (*protocol.Stats, error) {
	return omnc.Run(nw, src, dst, omnc.OMNC(omnc.RateOptions{}), SchemeConfig(s.Scheme, s.Redundancy))
}

// FieldScenario is one benchmarked coefficient-field session: the OMNC
// protocol on the strip network coding over a non-default field. The entry
// proves the field strategy layer rides the pooled arena and the solver
// workspaces — a wider field doubles coefficient traffic but must not add
// per-packet allocations.
type FieldScenario struct {
	// Name is the stable benchmark identifier ("SessionField/16"), also
	// the Benchmark* suffix.
	Name  string
	Field coding.Field
}

// fieldSeed keeps every FieldScenario on the same placement and loss
// process, so the entries differ only by coefficient field.
const fieldSeed = 81

// FieldScenarios lists the benchmarked non-default fields in recorded order.
func FieldScenarios() []FieldScenario {
	return []FieldScenario{
		{Name: "SessionField/16", Field: coding.Field16},
	}
}

// FieldConfig is Config under an explicit coefficient field; the air frame
// grows with the coefficient vector so air times stay faithful.
func FieldConfig(f coding.Field) protocol.Config {
	cfg := Config(fieldSeed)
	cfg.Coding.Field = f
	cfg.AirPacketSize = cfg.Coding.CoeffBytes() + 1024
	return cfg
}

// Run executes one field session on nw.
func (s FieldScenario) Run(nw *topology.Network, src, dst int) (*protocol.Stats, error) {
	return omnc.Run(nw, src, dst, omnc.OMNC(omnc.RateOptions{}), FieldConfig(s.Field))
}

// MultiScenario is one benchmarked multi-unicast workload: two sessions of
// one protocol contending on the shared engine over the strip network.
type MultiScenario struct {
	// Name is the stable benchmark identifier ("MultiSessionOMNC", ...),
	// also the Benchmark* suffix.
	Name string
	// Seed feeds the shared engine and both sessions' derived RNG streams.
	Seed  int64
	Proto omnc.Protocol
	// Sessions are the contending endpoint pairs.
	Sessions []omnc.Endpoints
}

// MultiScenarios lists the benchmarked multi-session workloads in recorded
// order. Two sessions cross the strip in opposite rows, so they share relay
// neighbourhoods and genuinely contend.
func MultiScenarios() []MultiScenario {
	sessions := []omnc.Endpoints{{Src: 0, Dst: 10}, {Src: 1, Dst: 11}}
	return []MultiScenario{
		{Name: "MultiSessionOMNC", Seed: 51, Proto: omnc.OMNC(omnc.RateOptions{}), Sessions: sessions},
		{Name: "MultiSessionETX", Seed: 53, Proto: omnc.ETX(), Sessions: sessions},
	}
}

// Run executes the multi-session workload on nw.
func (s MultiScenario) Run(nw *topology.Network) (*protocol.MultiStats, error) {
	return omnc.RunMulti(nw, s.Sessions, s.Proto, Config(s.Seed))
}

// ScaledMultiScenario is the parallel-engine scaling workload behind
// BenchmarkMultiSessionScaled* and the benchmark's sim.parallel_speedup_w2: many
// sessions contending on one shared engine with full-size 1 KB blocks, so
// per-session decode work (which the parallel engine shards) dominates the
// serial MAC bookkeeping. EngineWorkers picks the engine: 0 the serial
// reference, N >= 1 the conservative parallel engine. The emulated results
// are bit-identical for every EngineWorkers value — only wall-clock varies.
type ScaledMultiScenario struct {
	// Name is the stable benchmark identifier, also the Benchmark* suffix.
	Name string
	// EngineWorkers is protocol.Config EngineWorkers for every session.
	EngineWorkers int
}

// scaledSeed keeps every ScaledMultiScenario on the same emulation, so the
// serial and parallel entries time identical work.
const scaledSeed = 61

// ScaledMultiScenarios lists the scaling ladder:
// the serial baseline, then the parallel engine at 2, 4 and 8 workers.
func ScaledMultiScenarios() []ScaledMultiScenario {
	return []ScaledMultiScenario{
		{Name: "MultiSessionScaled/serial", EngineWorkers: 0},
		{Name: "MultiSessionScaled/workers=2", EngineWorkers: 2},
		{Name: "MultiSessionScaled/workers=4", EngineWorkers: 4},
		{Name: "MultiSessionScaled/workers=8", EngineWorkers: 8},
	}
}

// ScaledNetwork returns the scaling-benchmark topology: sixteen
// radio-isolated copies of the Network() strip (stacked 200 m apart, beyond
// the 100 m PHY range), one session crossing each copy. Isolation keeps the
// per-session oracle rate allocations alike, so sessions transmit near
// lockstep and their same-timestamp deliveries form multi-shard rounds —
// the workload shape the parallel engine accelerates.
func ScaledNetwork() (nw *topology.Network, sessions []omnc.Endpoints, err error) {
	const strips = 16
	positions := make([]topology.Point, 0, strips*12)
	for s := 0; s < strips; s++ {
		yBase := float64(s) * 200
		for i := 0; i < 6; i++ {
			positions = append(positions,
				topology.Point{X: float64(i) * 55, Y: yBase},
				topology.Point{X: float64(i)*55 + 27, Y: yBase + 45},
			)
		}
	}
	nw, err = topology.FromPositions(positions, topology.DefaultPHY())
	if err != nil {
		return nil, nil, err
	}
	for s := 0; s < strips; s++ {
		sessions = append(sessions, omnc.Endpoints{Src: s * 12, Dst: s*12 + 10})
	}
	return nw, sessions, nil
}

// ScaledConfig is the scaling-benchmark session configuration: the paper's
// full 1 KB blocks (decode arithmetic at real cost, unlike the rank-fidelity
// shortcuts elsewhere) with the generation count bounded so every run does
// identical work.
func ScaledConfig(engineWorkers int) protocol.Config {
	return protocol.Config{
		Coding:         coding.Params{GenerationSize: 32, BlockSize: 1024},
		AirPacketSize:  32 + 1024,
		Capacity:       8e4,
		Duration:       600,
		MaxGenerations: 2,
		Seed:           scaledSeed,
		EngineWorkers:  engineWorkers,
		// Align frame completions on a 10 ms grid so the sessions'
		// deliveries share calendar buckets — the parallel engine's unit of
		// concurrency. Identical for every EngineWorkers value.
		TimeQuantum: 1e-2,
	}
}

// Run executes the scaled multi-session workload on nw with the scenario's
// engine selection. MORE keeps the measured work purely emulation + coding
// (no rate-control preamble diluting the parallel section).
func (s ScaledMultiScenario) Run(nw *topology.Network, sessions []omnc.Endpoints) (*protocol.MultiStats, error) {
	return omnc.RunMulti(nw, sessions, omnc.MORE(), ScaledConfig(s.EngineWorkers))
}

// Network returns the fixed session-benchmark topology: a 12-node strip
// with the paper's lossy PHY, wide enough that OMNC selects a multi-relay
// subgraph but small enough that one session run stays cheap. Src and dst
// sit four strip segments apart.
func Network() (nw *topology.Network, src, dst int, err error) {
	positions := make([]topology.Point, 0, 12)
	for i := 0; i < 6; i++ {
		positions = append(positions,
			topology.Point{X: float64(i) * 55, Y: 0},
			topology.Point{X: float64(i)*55 + 27, Y: 45},
		)
	}
	nw, err = topology.FromPositions(positions, topology.DefaultPHY())
	return nw, 0, 10, err
}

// Config bounds the session by decoded generations, not wall-clock, so
// every benchmark iteration does identical coding work.
func Config(seed int64) protocol.Config {
	return protocol.Config{
		Coding:         coding.Params{GenerationSize: 16, BlockSize: 256},
		AirPacketSize:  16 + 1024,
		Capacity:       2e4,
		Duration:       600,
		MaxGenerations: 4,
		Seed:           seed,
	}
}

// Run executes one session of the scenario on nw.
func (s Scenario) Run(nw *topology.Network, src, dst int) (*protocol.Stats, error) {
	return omnc.Run(nw, src, dst, s.Proto, Config(s.Seed))
}
