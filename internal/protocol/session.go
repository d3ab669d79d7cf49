package protocol

import (
	"fmt"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/sim"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// Env is the shared execution environment of one emulation: one event
// engine and one MAC model of the medium, which any number of protocol
// sessions attach to through the sim component/port API. A single-unicast
// run is an Env with one session; a multiple-unicast run attaches N sessions
// whose nodes contend on the same channel.
type Env struct {
	// Eng is the discrete-event engine owning time and the event calendar:
	// a serial engine by default, or a conservative parallel engine when
	// Config.EngineWorkers asks for one.
	Eng sim.Engine
	// MAC is the shared medium every session's components attach to.
	MAC *sim.MAC
	// Faults is the environment's fault injector, nil unless a fault plan
	// was installed. Sessions subscribe to its topology epochs to
	// re-optimize mid-run.
	Faults *faults.Injector

	attached  int  // sessions counted via AddSession
	finished  int  // sessions retired via SessionDone
	exclusive bool // built by Protocol.Run over one session's subgraph medium
}

// NewEnv builds an environment over the medium with the MAC parameters of
// cfg. Sessions attach their components afterwards; the caller then drives
// Eng.Run.
func NewEnv(medium sim.Medium, cfg Config) (*Env, error) {
	var eng sim.Engine
	if cfg.EngineWorkers > 0 {
		eng = sim.NewParallelEngine(cfg.EngineWorkers)
	} else {
		eng = sim.NewEngine()
	}
	mac, err := sim.NewMAC(eng, medium, sim.Config{
		Capacity:            cfg.Capacity,
		Mode:                cfg.MAC,
		Seed:                cfg.Seed,
		QueueSampleInterval: cfg.QueueSampleInterval,
		TimeQuantum:         cfg.TimeQuantum,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Report {
		// The measurement overlay only allocates counters; enabling it does
		// not perturb event timing or RNG draws.
		mac.EnableObservation()
	}
	return &Env{Eng: eng, MAC: mac}, nil
}

// InstallFaults validates the fault plan against the network and arms an
// injector on the environment's engine. local lists the network IDs behind
// the medium's addresses when the medium is one session's subgraph
// (Subgraph.Nodes); nil means the full-network medium, addressed by network
// ID. rec receives fault events when non-nil. A nil plan is a no-op, so
// callers can pass Config.Faults through unconditionally. Must run before
// sessions attach, so their constructors can observe Faults and subscribe.
func (e *Env) InstallFaults(plan *faults.Plan, net *topology.Network, local []int, rec trace.Recorder) error {
	if plan == nil {
		return nil
	}
	if e.Faults != nil {
		return fmt.Errorf("protocol: fault plan already installed")
	}
	if err := plan.Validate(net.Size()); err != nil {
		return err
	}
	mapNode := func(id int) (int, bool) { return id, true }
	if local != nil {
		localOf := make(map[int]int, len(local))
		for l, nid := range local {
			localOf[nid] = l
		}
		mapNode = func(id int) (int, bool) {
			l, ok := localOf[id]
			return l, ok
		}
	}
	e.Faults = faults.NewInjector(e.Eng, e.MAC, net, plan, mapNode, rec)
	return nil
}

// AddSession counts a session onto the environment. Every constructor that
// attaches components must call it exactly once, so SessionDone knows when
// the whole emulation has finished.
func (e *Env) AddSession() { e.attached++ }

// SessionEngine returns the engine a session tagged id should schedule
// through: a per-shard buffering view when Eng is the parallel engine, Eng
// itself otherwise. Sessions must use their view for every Schedule and
// ScheduleHandler issued from a Receive callback — that is what lets the
// parallel engine merge same-bucket effects deterministically.
func (e *Env) SessionEngine(id uint32) sim.Engine { return sim.ViewFor(e.Eng, id) }

// SessionDone retires one attached session (its generation target was
// reached). When every attached session has retired, the engine stops early
// instead of idling out the remaining emulated time.
func (e *Env) SessionDone() {
	e.finished++
	if e.finished >= e.attached {
		e.Eng.Stop()
	}
}

// Session is one unicast session attached to an Env. The coded runtime
// (OMNC, MORE, oldMORE) and the ETX store-and-forward runtime both implement
// it, which is what lets Protocol.Run drive every protocol alike and RunMulti
// emulate N contending sessions of any protocol on one engine.
type Session interface {
	// Start wakes the session's source; call after every session is
	// attached, before driving the engine.
	Start()
	// Finish releases the session's pooled resources and returns its
	// statistics. until is the emulated time the engine ran to.
	Finish(until float64) *Stats
	// Err reports why the session terminated abnormally — in particular
	// ErrDestinationDown when a fault plan killed the destination for good —
	// or nil for a normal run.
	Err() error
}

// SessionSpec is one validated session of a multi-unicast run: its network
// endpoints and the forwarder subgraph node selection produced for them.
type SessionSpec struct {
	// ID is the session's index among the run's endpoints; it doubles as
	// the demultiplexing tag on the shared channel.
	ID int
	// Src and Dst are network node IDs.
	Src, Dst int
	// Subgraph is the session's selected forwarder set.
	Subgraph *core.Subgraph
}
