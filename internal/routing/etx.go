package routing

import (
	"fmt"
	"math"
	"sort"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/graph"
	"omnc/internal/protocol"
	"omnc/internal/sim"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// macAckBytes is the link-layer acknowledgement size charged to every
// reliable-unicast attempt (an 802.11 ACK frame is 14 bytes).
const macAckBytes = 14

// etxSession is the traditional high-throughput single-path baseline
// (Sec. 5, "ETX routing"): Dijkstra on the ETX metric picks one path, each
// hop forwards store-and-forward with MAC-layer retransmissions providing
// per-hop reliability, and nodes contend for channel shares like everyone
// else. No coding, no multipath. It implements protocol.Session, so it runs
// exclusively (RunETX) or as one of N contending sessions on a shared Env
// (protocol.RunMulti with the ETX protocol).
type etxSession struct {
	id       uint32 // session tag on the shared channel (0 when exclusive)
	shared   bool
	cfg      protocol.Config
	env      *protocol.Env
	eng      sim.Engine // the session's engine view (Env.SessionEngine)
	sg       *core.Subgraph
	path     []int       // local node indices, source first
	nextHop  map[int]int // local index -> next local index
	appBytes int

	// Fault handling: localOf maps network IDs to subgraph-local indices
	// for injector events; relays and the attached sets let a re-route
	// reuse or lazily attach per-hop components; stalled silences the
	// session while no route survives; failure carries the typed
	// abnormal-termination cause.
	localOf    map[int]int
	relays     map[int]*etxRelay
	attachedTx map[int]bool
	attachedRx map[int]bool
	stalled    bool
	failure    error

	srcSent    int64
	delivered  int64
	target     int64 // stop after this many delivered packets (0 = none)
	done       bool
	finishedAt float64
	sentAt     []int64 // per-local-node frames this session sent (shared or reporting runs)
	recvAt     []int64 // per-local-node session deliveries (shared or reporting runs)

	// obs is the report collector (etxreport.go), nil unless Config.Report
	// is set — the same nil-until-enabled contract as the fault overlays.
	obs *etxObs
}

// etxPacket is one uncoded application packet on the shared channel, tagged
// with its session for demultiplexing.
type etxPacket struct {
	session uint32
	seq     int64
}

// SessionTag implements sim.Tagged: the MAC routes the packet straight to
// its session's port and shards same-time deliveries by session.
func (p etxPacket) SessionTag() uint32 { return p.session }

// etxWake defers a MAC wake-up from a receive callback to serial engine
// context, coalesced per bucket: waking the MAC mutates shared channel
// state, which a Receive callback must not do while other sessions'
// callbacks run concurrently in a parallel round. Wake is idempotent, so
// one deferred call per bucket is equivalent to several inline ones.
type etxWake struct {
	s      *etxSession
	local  int
	queued bool
}

// Fire implements sim.Handler.
func (w *etxWake) Fire() {
	w.queued = false
	w.s.env.MAC.Wake(w.s.macID(w.local))
}

// deferWake schedules the coalesced wake-up at delay zero on the session's
// engine view.
func (s *etxSession) deferWake(w *etxWake) {
	if w.queued {
		return
	}
	w.queued = true
	s.eng.ScheduleHandler(0, w)
}

// ETXProtocol wraps ETX routing as a protocol.Protocol for the unified Run
// and RunMulti entry points.
func ETXProtocol() protocol.Protocol {
	return protocol.CustomProtocol("etx", RunETX).WithMulti(ETXMulti())
}

// ETXMulti returns the multi-session constructor for ETX routing: one
// store-and-forward path per session, all contending on the shared Env.
func ETXMulti() protocol.MultiBuilder {
	return func(env *protocol.Env, net *topology.Network, specs []protocol.SessionSpec, cfg protocol.Config) ([]protocol.Session, error) {
		out := make([]protocol.Session, len(specs))
		for i, sp := range specs {
			s, err := attachETX(env, sp.Subgraph, cfg, uint32(sp.ID), true, sp.Src, sp.Dst)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
}

// RunETX emulates one unicast session under ETX routing and returns its
// statistics. The session runs over the same selected subgraph and channel
// model as the coded protocols so that throughput gains (Fig. 2) compare
// like with like.
func RunETX(net *topology.Network, src, dst int, cfg protocol.Config) (*protocol.Stats, error) {
	cfg = cfg.WithDefaults()
	sg, err := core.SelectNodes(net, src, dst)
	if err != nil {
		return nil, err
	}
	env, err := protocol.NewEnv(protocol.NewMedium(net, sg), cfg)
	if err != nil {
		return nil, err
	}
	// The exclusive medium addresses nodes by subgraph-local index.
	if err := env.InstallFaults(cfg.Faults, net, sg.Nodes, cfg.Trace); err != nil {
		return nil, err
	}
	s, err := attachETX(env, sg, cfg, 0, false, src, dst)
	if err != nil {
		return nil, err
	}
	s.Start()
	env.Eng.Run(cfg.Duration)
	st := s.Finish(cfg.Duration)
	if s.failure != nil {
		return nil, s.failure
	}
	return st, nil
}

// attachETX computes the minimum-ETX path over the subgraph and attaches the
// session's per-hop components (source, relays, sink) to the Env's medium.
// In shared placement components bind at network IDs and filter deliveries
// by session tag.
func attachETX(env *protocol.Env, sg *core.Subgraph, cfg protocol.Config, id uint32, shared bool, netSrc, netDst int) (*etxSession, error) {
	costs := make([]float64, len(sg.Links))
	for i, l := range sg.Links {
		costs[i] = 1 / l.Prob
	}
	path, _, ok := graph.ShortestPath(sg.ForwardGraph(costs), sg.Src, sg.Dst)
	if !ok {
		return nil, &graph.ErrNoPath{Src: netSrc, Dst: netDst}
	}
	s := &etxSession{
		id:       id,
		shared:   shared,
		cfg:      cfg,
		env:      env,
		sg:       sg,
		path:     path,
		nextHop:  make(map[int]int, len(path)),
		appBytes: cfg.AirPacketSize - cfg.Coding.GenerationSize,
	}
	if cfg.MaxGenerations > 0 {
		s.target = int64(cfg.MaxGenerations) * int64(cfg.Coding.GenerationSize)
	}
	if shared || cfg.Report {
		s.sentAt = make([]int64, sg.Size())
		s.recvAt = make([]int64, sg.Size())
	}
	if cfg.Report {
		s.obs = &etxObs{}
	}
	for h := 0; h+1 < len(path); h++ {
		s.nextHop[path[h]] = path[h+1]
	}
	s.relays = make(map[int]*etxRelay)
	s.attachedTx = make(map[int]bool)
	s.attachedRx = make(map[int]bool)
	s.localOf = make(map[int]int, len(sg.Nodes))
	for local, nid := range sg.Nodes {
		s.localOf[nid] = local
	}
	s.eng = env.SessionEngine(id)
	s.attachPath()
	if env.Faults != nil {
		env.Faults.Subscribe(s.onFault)
	}
	env.AddSession()
	return s, nil
}

// attachPath makes sure every hop of the current path has its components on
// the medium; ports attach at most once per node (a re-route revives the
// existing relay rather than stacking a second port).
func (s *etxSession) attachPath() {
	for h, v := range s.path {
		switch {
		case h == 0:
			if !s.attachedTx[v] {
				s.env.MAC.AttachTransmitter(s.macID(v), &etxSource{s: s, local: v}, math.Inf(1))
				s.attachedTx[v] = true
			}
		case h == len(s.path)-1:
			if !s.attachedRx[v] {
				s.env.MAC.AttachSessionReceiver(s.macID(v), &etxSink{s: s, local: v}, s.id)
				s.attachedRx[v] = true
			}
		default:
			r := s.relays[v]
			if r == nil {
				r = &etxRelay{s: s, local: v}
				r.wake = etxWake{s: s, local: v}
				s.relays[v] = r
			}
			if !s.attachedTx[v] {
				s.env.MAC.AttachTransmitter(s.macID(v), r, math.Inf(1))
				s.attachedTx[v] = true
			}
			if !s.attachedRx[v] {
				s.env.MAC.AttachSessionReceiver(s.macID(v), r, s.id)
				s.attachedRx[v] = true
			}
		}
	}
}

// onFault is ETX's topology-epoch subscriber: a crashed relay loses its
// store-and-forward buffer, a destination crash with no scheduled recovery
// fails the session, a quality drift silences the session for its dead time,
// and any connectivity or quality change re-runs Dijkstra over the surviving
// links at their current qualities.
func (s *etxSession) onFault(ev faults.Event) {
	if s.done {
		return
	}
	if s.obs != nil {
		ev.Kind.Tally(&s.obs.faults)
	}
	switch ev.Kind {
	case faults.NodeCrash:
		if local, ok := s.localOf[ev.Node]; ok {
			if local == s.sg.Dst && !s.env.Faults.WillRecover(ev.Node) {
				s.fail(fmt.Errorf("%w: node %d crashed with no recovery before the horizon",
					protocol.ErrDestinationDown, ev.Node))
				return
			}
			if r := s.relays[local]; r != nil {
				r.queue = r.queue[:0] // the relay's buffer died with it
			}
		}
	case faults.BurstLoss, faults.BurstEnd:
		return // degraded, not disconnected: the route stands, MAC retries cope
	}
	if s.env.Faults.Reinitiating() {
		s.stalled = true // a drift's dead time: silent until its window closes
		return
	}
	s.reroute()
}

// fail terminates the session abnormally with a typed cause.
func (s *etxSession) fail(err error) {
	if s.done {
		return
	}
	s.done = true
	s.failure = err
	s.finishedAt = s.env.Eng.Now()
	s.env.SessionDone()
}

// reroute re-runs the minimum-ETX path computation over the links that
// survive the current faults, at their drifted qualities. No surviving route stalls the session until a
// later epoch restores one; a new route drops the old relays' buffers (ETX
// has no end-to-end recovery — per-hop MAC retries are its only reliability)
// and wakes the hops that have work.
func (s *etxSession) reroute() {
	// Emit and count in lockstep with the coded runtime's replan() so trace
	// and report stay reconcilable across all four protocols.
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(trace.Event{
			Time: s.env.Eng.Now(),
			Type: trace.EventReplan,
			Node: s.sg.Src,
			From: -1,
		})
	}
	if s.obs != nil {
		s.obs.faults.Replans++
	}
	inj := s.env.Faults
	g := graph.New(s.sg.Size())
	for _, l := range s.sg.Links {
		a, b := s.sg.Nodes[l.From], s.sg.Nodes[l.To]
		f := inj.LinkFactor(a, b)
		if inj.NodeDown(a) || inj.NodeDown(b) || f == 0 {
			continue
		}
		g.AddEdge(l.From, l.To, 1/(l.Prob*f))
	}
	path, _, ok := graph.ShortestPath(g, s.sg.Src, s.sg.Dst)
	if !ok {
		s.stalled = true
		return
	}
	s.stalled = false
	s.path = path
	for k := range s.nextHop {
		delete(s.nextHop, k)
	}
	for h := 0; h+1 < len(path); h++ {
		s.nextHop[path[h]] = path[h+1]
	}
	s.attachPath()
	for local, r := range s.relays {
		if _, on := s.nextHop[local]; !on {
			r.queue = r.queue[:0] // off the new path: buffered packets are orphaned
		}
	}
	s.env.MAC.Wake(s.macID(path[0]))
	// Wake in sorted order: these calls schedule MAC events, and same-time
	// ties resolve in insertion order, so map iteration here would leak
	// scheduling nondeterminism into the run.
	locals := make([]int, 0, len(s.relays))
	for local := range s.relays {
		locals = append(locals, local)
	}
	sort.Ints(locals)
	for _, local := range locals {
		if _, on := s.nextHop[local]; on && len(s.relays[local].queue) > 0 {
			s.env.MAC.Wake(s.macID(local))
		}
	}
}

// macID maps a subgraph-local node index to its address on the Env's medium.
func (s *etxSession) macID(local int) int {
	if s.shared {
		return s.sg.Nodes[local]
	}
	return local
}

// Start implements protocol.Session.
func (s *etxSession) Start() { s.env.MAC.Wake(s.macID(s.path[0])) }

// Err implements protocol.Session.
func (s *etxSession) Err() error { return s.failure }

// Finish implements protocol.Session.
func (s *etxSession) Finish(until float64) *protocol.Stats {
	duration := until
	if s.done && s.finishedAt > 0 {
		duration = s.finishedAt
	}
	st := &protocol.Stats{
		Policy:        "etx",
		Duration:      duration,
		SelectedNodes: s.sg.Size(),
	}
	if duration > 0 {
		st.Throughput = float64(s.delivered) * float64(s.appBytes) / duration
	}
	st.GenerationsDecoded = int(s.delivered) / s.cfg.Coding.GenerationSize

	if s.shared {
		// Per-session attribution from the session's own counters; queue
		// statistics are a property of the shared channel and stay zero. The
		// destination is excluded from the utility denominator, so it must
		// not count as involved either.
		involved := 0
		for i, f := range s.sentAt {
			if i == s.sg.Dst {
				continue
			}
			if f > 0 {
				involved++
			}
		}
		if nonDst := s.sg.Size() - 1; nonDst > 0 {
			st.NodeUtility = float64(involved) / float64(nonDst)
		}
		used := graph.New(s.sg.Size())
		for h := 0; h+1 < len(s.path); h++ {
			if s.recvAt[s.path[h+1]] > 0 {
				used.AddEdge(s.path[h], s.path[h+1], 1)
			}
		}
		if total := s.sg.PathCount(); total > 0 {
			st.PathUtility = graph.CountPaths(used, s.sg.Src, s.sg.Dst) / total
		}
		if s.obs != nil {
			st.Report = s.buildReport(st)
		}
		return st
	}

	mac := s.env.MAC
	st.QueuePerNode = make([]float64, s.sg.Size())
	involved, queueSum := 0, 0.0
	for i := range st.QueuePerNode {
		st.QueuePerNode[i] = mac.TimeAvgQueue(i)
		if i == s.sg.Dst {
			continue // the destination never transmits and sits outside the denominator
		}
		if mac.FramesSent(i) > 0 {
			involved++
			queueSum += st.QueuePerNode[i]
		}
	}
	if involved > 0 {
		st.MeanQueue = queueSum / float64(involved)
	}
	if nonDst := s.sg.Size() - 1; nonDst > 0 {
		st.NodeUtility = float64(involved) / float64(nonDst)
	}
	used := graph.New(s.sg.Size())
	for _, l := range s.sg.Links {
		if mac.Delivered(l.From, l.To) > 0 {
			used.AddEdge(l.From, l.To, 1)
		}
	}
	if total := s.sg.PathCount(); total > 0 {
		st.PathUtility = graph.CountPaths(used, s.sg.Src, s.sg.Dst) / total
	}
	if s.obs != nil {
		st.Report = s.buildReport(st)
	}
	return st
}

// etxSource emits uncoded packets paced by the CBR workload.
type etxSource struct {
	s     *etxSession
	local int
}

func (src *etxSource) Dequeue() *sim.Frame {
	s := src.s
	if s.done || s.stalled {
		return nil
	}
	if s.cfg.CBRRate > 0 {
		ready := float64(s.srcSent+1) * float64(s.appBytes) / s.cfg.CBRRate
		if s.env.Eng.Now() < ready {
			macID := s.macID(src.local)
			s.env.Eng.Schedule(ready-s.env.Eng.Now(), func() { s.env.MAC.Wake(macID) })
			return nil
		}
	}
	s.srcSent++
	if s.sentAt != nil {
		s.sentAt[src.local]++
	}
	return &sim.Frame{
		Size:     s.appBytes,
		Dest:     s.macID(s.nextHop[src.local]),
		Reliable: true,
		AckSize:  macAckBytes,
		Payload:  etxPacket{session: s.id, seq: s.srcSent},
	}
}

// QueueLen reports the source's link-layer queue. The CBR backlog is an
// application-layer quantity: like the coded protocols' sources (which
// encode on demand), it is not part of the broadcast-queue metric Fig. 3
// samples, so the source reports an empty queue; relays report their real
// store-and-forward backlog.
func (src *etxSource) QueueLen() int { return 0 }

// etxRelay stores and forwards packets hop by hop.
type etxRelay struct {
	s     *etxSession
	local int
	queue []etxPacket
	wake  etxWake // deferred MAC wake-up, coalesced per bucket
}

func (r *etxRelay) Receive(from int, payload interface{}) {
	s := r.s
	p, ok := payload.(etxPacket)
	if !ok || p.session != s.id || s.done {
		return
	}
	if _, on := s.nextHop[r.local]; !on {
		return // a stale in-flight frame reached a relay the route left behind
	}
	if s.recvAt != nil {
		s.recvAt[r.local]++
	}
	r.queue = append(r.queue, p)
	s.deferWake(&r.wake)
}

func (r *etxRelay) Dequeue() *sim.Frame {
	s := r.s
	if s.done || s.stalled || len(r.queue) == 0 {
		return nil
	}
	if _, on := s.nextHop[r.local]; !on {
		return nil // off the current path: nowhere to forward
	}
	payload := r.queue[0]
	r.queue = r.queue[1:]
	if s.sentAt != nil {
		s.sentAt[r.local]++
	}
	return &sim.Frame{
		Size:     s.appBytes,
		Dest:     s.macID(s.nextHop[r.local]),
		Reliable: true,
		AckSize:  macAckBytes,
		Payload:  payload,
	}
}

func (r *etxRelay) QueueLen() int { return len(r.queue) }

// etxSink counts delivered packets at the destination.
type etxSink struct {
	s     *etxSession
	local int
}

func (k *etxSink) Receive(from int, payload interface{}) {
	s := k.s
	p, ok := payload.(etxPacket)
	if !ok || p.session != s.id || s.done {
		return
	}
	if s.recvAt != nil {
		s.recvAt[k.local]++
	}
	s.delivered++
	// A generation's worth of delivered packets is ETX's analogue of a
	// decode: it keeps trace-derived metrics (time-to-recover under faults)
	// comparable across the four protocols.
	if gs := int64(s.cfg.Coding.GenerationSize); s.cfg.Trace != nil && s.delivered%gs == 0 {
		// Receive runs in shard context on the parallel engine: capture the
		// event here, record it in serial context at the bucket barrier.
		ev := trace.Event{
			Time:       s.env.Eng.Now(),
			Type:       trace.EventDecode,
			Node:       k.local,
			From:       -1,
			Generation: int(s.delivered/gs) - 1,
		}
		rec := s.cfg.Trace
		s.eng.Schedule(0, func() { rec.Record(ev) })
	}
	if s.target > 0 && s.delivered >= s.target {
		s.done = true
		s.finishedAt = s.env.Eng.Now()
		// SessionDone touches the Env's shared finished counter and may
		// Stop the engine; both must happen in serial engine context.
		s.eng.Schedule(0, s.env.SessionDone)
	}
}
