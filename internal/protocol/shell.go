package protocol

import (
	"errors"
	"fmt"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/graph"
	"omnc/internal/report"
	"omnc/internal/sim"
	"omnc/internal/trace"
)

// ErrDestinationDown matches a session whose destination crashed with no
// recovery scheduled before the horizon: the session finishes immediately
// with this typed error instead of idling through the remaining emulated
// time. Match with errors.Is.
var ErrDestinationDown = errors.New("protocol: destination down")

// shell is the session runtime every data plane shares — the coded runtime
// (OMNC, MORE, oldMORE) and ETX store-and-forward both embed it. It owns the
// placement, termination, the fault skeleton, the per-node and per-link
// counters behind Fig. 4's utilities, and the report.
//
// A session runs in one of two placements. Exclusive (Protocol.Run): the
// session owns a private Env over its subgraph medium and nodes are
// addressed by subgraph-local index. Shared (RunMulti): several sessions
// attach to one Env over the full network, nodes are addressed by network
// ID, and packets carry the session tag so each session's ports filter
// their own traffic off the common broadcast channel.
type shell struct {
	sg  *core.Subgraph
	cfg Config

	id     uint32 // session tag on the shared channel (0 when exclusive)
	shared bool   // attached to a multi-session Env
	env    *Env
	eng    sim.Engine // the session's engine view (Env.SessionEngine)
	mac    *sim.MAC

	localOf map[int]int // network ID -> local index (shared or faulted runs)
	linkAt  []int32     // from*Size+to (local) -> 1 + index into sg.Links, 0 if none
	linkRx  []int64     // per subgraph link: deliveries of this session's frames
	frames  []int64     // per local node: frames this session's ports handed to the MAC

	// plane receives the fault skeleton's crash/rejoin/stall/replan calls;
	// ridesBursts keeps loss bursts from re-planning or stalling (ETX, whose
	// MAC retries cope with a degraded route).
	plane       dataPlane
	ridesBursts bool

	done       bool
	finishedAt float64
	failure    error // typed abnormal-termination cause

	// currentGen is the generation trace events carry: the coded runtime's
	// live generation, 0 throughout an ETX run.
	currentGen int

	// traceFree recycles deferred rx-side trace handlers (see deferRecord);
	// a plain slice suffices because pops (receive path) and pushes (the
	// handler's Fire) always run on the goroutine currently owning this
	// session — the engine goroutine serially, the session's shard worker
	// inside a parallel round — with a barrier between the two.
	traceFree []*traceEvent

	// obs is the report collector, nil unless Config.Report is set — the
	// same nil-until-enabled contract as the fault overlays.
	obs *sessionObs
}

// dataPlane is what a data plane supplies to the shell's fault skeleton.
type dataPlane interface {
	crash(local int)  // the node lost its volatile state
	rejoin(local int) // the node is back up
	stall()           // silence the session until a later replan succeeds
	replan()          // re-plan over the subgraph that survives the faults
}

// init binds the shell to its Env. The placement follows the Env: exclusive
// when Protocol.Run built it over this session's subgraph, shared otherwise.
func (s *shell) init(env *Env, sg *core.Subgraph, cfg Config, id uint32) {
	n := sg.Size()
	*s = shell{
		sg:     sg,
		cfg:    cfg,
		id:     id,
		shared: !env.exclusive,
		env:    env,
		eng:    env.SessionEngine(id),
		mac:    env.MAC,
		linkAt: make([]int32, n*n),
		linkRx: make([]int64, len(sg.Links)),
		frames: make([]int64, n),
	}
	for li, l := range sg.Links {
		s.linkAt[l.From*n+l.To] = int32(li + 1)
	}
	if s.shared || env.Faults != nil {
		s.localOf = make(map[int]int, n)
		for local, nid := range sg.Nodes {
			s.localOf[nid] = local
		}
	}
	if cfg.Report {
		s.obs = &sessionObs{rx: make([]int64, n), innov: make([]int64, n), discard: make([]int64, n)}
	}
}

// attach subscribes the data plane to the Env's topology epochs and counts
// the session onto the Env; call once its ports are on the medium.
func (s *shell) attach(plane dataPlane) {
	s.plane = plane
	if s.env.Faults != nil {
		s.env.Faults.Subscribe(s.onFault)
	}
	s.env.AddSession()
}

// macID maps a subgraph-local node index to its address on the Env's medium.
func (s *shell) macID(local int) int {
	if s.shared {
		return s.sg.Nodes[local]
	}
	return local
}

// arrive is where a receive port first sees one of this session's frames:
// it maps the sender to its local index (false: the sender is outside the
// subgraph) and counts the delivery on its subgraph link. This count is the
// one source of PathUtility and Report.Links in both placements — taken
// before any done, generation, downstream or off-path filter, so a stale
// frame still shows the link carried it.
func (s *shell) arrive(from, to int) (int, bool) {
	if s.shared {
		local, ok := s.localOf[from]
		if !ok {
			return 0, false
		}
		from = local
	}
	if li := s.linkAt[from*s.sg.Size()+to]; li > 0 {
		s.linkRx[li-1]++
	}
	return from, true
}

// emit records a protocol event when tracing is enabled. Only for call
// sites that run in serial engine context (Dequeue side, generation
// restarts, fault reactions); receive-path sites must use emitDeferred.
func (s *shell) emit(t trace.EventType, node, from int) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace.Record(trace.Event{Time: s.eng.Now(), Type: t, Node: node, From: from, Generation: s.currentGen})
}

// emitDeferred records a protocol event from the session's receive path.
func (s *shell) emitDeferred(t trace.EventType, node, from int) {
	if s.cfg.Trace == nil {
		return
	}
	s.deferRecord(trace.Event{Time: s.eng.Now(), Type: t, Node: node, From: from, Generation: s.currentGen})
}

// deferRecord defers one trace record to serial engine context: the event
// is captured (with its timestamp) where it happened and recorded when the
// handler fires at delay zero. Receive callbacks run concurrently with
// other sessions' on the parallel engine, and the trace Recorder — though
// mutex-safe — would interleave their records nondeterministically;
// deferring through the calendar restores a deterministic record order on
// both engines.
func (s *shell) deferRecord(ev trace.Event) {
	var h *traceEvent
	if n := len(s.traceFree); n > 0 {
		h = s.traceFree[n-1]
		s.traceFree = s.traceFree[:n-1]
	} else {
		h = &traceEvent{s: s}
	}
	h.ev = ev
	s.eng.ScheduleHandler(0, h)
}

// traceEvent is one deferred trace record (see deferRecord).
type traceEvent struct {
	s  *shell
	ev trace.Event
}

// Fire implements sim.Handler.
func (h *traceEvent) Fire() {
	h.s.cfg.Trace.Record(h.ev)
	h.s.traceFree = append(h.s.traceFree, h)
}

// wake defers a MAC.Wake from a receive path to serial engine context.
// Waking the MAC mutates shared channel state (and can draw from the MAC's
// RNG), which a session's Receive callback must not do while other
// sessions' callbacks run concurrently in the same parallel round. The
// queued flag coalesces multiple wake-ups of one node in one bucket — Wake
// is idempotent, so a single deferred call is equivalent.
type wake struct {
	mac    *sim.MAC
	node   int // address on the medium
	queued bool
}

// Fire implements sim.Handler.
func (w *wake) Fire() {
	w.queued = false
	w.mac.Wake(w.node)
}

// deferWake schedules w's coalesced wake-up at delay zero.
func (s *shell) deferWake(w *wake) {
	if w.queued {
		return
	}
	w.queued = true
	s.eng.ScheduleHandler(0, w)
}

// reachTarget marks the session done at its generation target. SessionDone
// touches the Env's shared finished counter and may Stop the engine; both
// must happen in serial engine context, so it is scheduled.
func (s *shell) reachTarget() {
	s.done = true
	s.finishedAt = s.eng.Now()
	s.eng.Schedule(0, s.env.SessionDone)
}

// fail terminates the session abnormally with a typed cause.
func (s *shell) fail(err error) {
	if s.done {
		return
	}
	s.done = true
	s.failure = err
	s.finishedAt = s.eng.Now()
	s.env.SessionDone()
}

// Err implements Session.
func (s *shell) Err() error { return s.failure }

// onFault is the session's topology-epoch subscriber: a crashed node loses
// its volatile state (a destination with no scheduled recovery fails the
// session), a recovered node rejoins, a drift's dead time stalls the session
// until its window closes, and any other change re-plans over the surviving
// subgraph at its current link qualities — the mid-session re-optimization
// the paper calls for when "link qualities change significantly" (Sec. 4).
func (s *shell) onFault(ev faults.Event) {
	if s.done {
		return
	}
	if s.obs != nil {
		ev.Kind.Tally(&s.obs.faults)
	}
	switch ev.Kind {
	case faults.NodeCrash:
		local, ok := s.localOf[ev.Node]
		if !ok {
			break // outside this session's subgraph: capacity may shift, re-plan below
		}
		if local == s.sg.Dst && !s.env.Faults.WillRecover(ev.Node) {
			s.fail(fmt.Errorf("%w: node %d crashed with no recovery before the horizon",
				ErrDestinationDown, ev.Node))
			return
		}
		s.plane.crash(local)
	case faults.NodeRecover:
		if local, ok := s.localOf[ev.Node]; ok {
			s.plane.rejoin(local)
		}
	case faults.BurstLoss, faults.BurstEnd:
		if s.ridesBursts {
			return
		}
	}
	if s.env.Faults.Reinitiating() {
		s.plane.stall()
		return
	}
	// Emitted and counted for every protocol alike, so trace and report
	// stay reconcilable across all four.
	s.emit(trace.EventReplan, s.sg.Src, -1)
	if s.obs != nil {
		s.obs.faults.Replans++
	}
	s.plane.replan()
}

// finish computes the statistics every data plane shares: duration, node
// utility from the frames the session's nodes sent, path utility from its
// per-link delivery counts and, in exclusive placement only, the queue
// statistics — on a shared channel a physical node's queue belongs to no
// single session.
func (s *shell) finish(until float64, policy string) *Stats {
	duration := until
	if s.done && s.finishedAt > 0 {
		duration = s.finishedAt
	}
	st := &Stats{Policy: policy, Duration: duration, SelectedNodes: s.sg.Size()}
	if !s.shared {
		st.QueuePerNode = make([]float64, s.sg.Size())
	}
	involved, queueSum := 0, 0.0
	for i, sent := range s.frames {
		if !s.shared {
			// A private MAC's count is this session's alone; unlike the
			// ports' it leaves out frames a crash cut short or the stop
			// caught in flight.
			sent = s.mac.FramesSent(i)
			st.QueuePerNode[i] = s.mac.TimeAvgQueue(i)
		}
		// The destination sits outside the utility denominator, so it must
		// not count as involved either.
		if i == s.sg.Dst || sent == 0 {
			continue
		}
		involved++
		if !s.shared {
			queueSum += st.QueuePerNode[i]
		}
	}
	if involved > 0 && !s.shared {
		st.MeanQueue = queueSum / float64(involved)
	}
	if nonDst := s.sg.Size() - 1; nonDst > 0 {
		st.NodeUtility = float64(involved) / float64(nonDst)
	}
	used := graph.New(s.sg.Size())
	for li, l := range s.sg.Links {
		if s.linkRx[li] > 0 {
			used.AddEdge(l.From, l.To, 1)
		}
	}
	if total := s.sg.PathCount(); total > 0 {
		st.PathUtility = graph.CountPaths(used, s.sg.Src, s.sg.Dst) / total
	}
	return st
}

// sessionObs is the report collector, allocated only when Config.Report is
// set (nil otherwise, mirroring the MAC's measurement overlay). Every hook is
// an index increment at a site that already records the same event into the
// trace, so enabled-run counters reconcile exactly against trace.Buffer
// counts and disabled runs pay one nil check.
type sessionObs struct {
	rx      []int64 // per local node: session receptions accepted
	innov   []int64 // per local node: innovative receptions
	discard []int64 // per local node: non-innovative/expired discards
	rank    []report.RankPoint
	faults  report.FaultSummary
}

// report assembles the session's Report at Finish time from the collector,
// the MAC's measurement overlay and the session's own counters.
func (s *shell) report(st *Stats) *report.Report {
	r := &report.Report{
		Protocol:           st.Policy,
		Seed:               s.cfg.Seed,
		Duration:           st.Duration,
		GenerationsDecoded: st.GenerationsDecoded,
		Throughput:         st.Throughput,
		RankTimeline:       s.obs.rank,
		Faults:             s.obs.faults,
	}
	if s.env.Faults != nil {
		r.Faults.Epochs = s.env.Faults.Epoch()
	}
	r.Nodes = make([]report.NodeCounters, s.sg.Size())
	var tokenSum float64
	var tokenN int64
	for i := range r.Nodes {
		id := s.macID(i)
		r.Nodes[i] = report.NodeCounters{
			Node:           i,
			TxFrames:       s.frames[i],
			RxPackets:      s.obs.rx[i],
			Innovative:     s.obs.innov[i],
			Discarded:      s.obs.discard[i],
			AirtimeSeconds: s.mac.Airtime(id),
		}
		if !s.shared {
			r.Nodes[i].MeanQueue = s.mac.TimeAvgQueue(i)
		}
		r.MAC.FramesSent += s.mac.FramesSent(id)
		r.MAC.BytesSent += s.mac.BytesSent(id)
		r.MAC.AirtimeSeconds += s.mac.Airtime(id)
		sum, n := s.mac.TokenObservations(id)
		tokenSum += sum
		tokenN += n
	}
	if tokenN > 0 {
		r.MAC.MeanTokenOccupancy = tokenSum / float64(tokenN)
	}
	for li, l := range s.sg.Links {
		if d := s.linkRx[li]; d > 0 {
			r.Links = append(r.Links, report.LinkDelivery{From: l.From, To: l.To, Delivered: d})
		}
	}
	if !s.shared {
		// The queue histogram aggregates the private MAC's sampler; on a
		// shared channel the queues belong to physical nodes, not sessions.
		r.QueueLength = s.mac.QueueHistogram()
	}
	return r
}
