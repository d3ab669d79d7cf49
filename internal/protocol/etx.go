package protocol

import (
	"math"
	"sort"

	"omnc/internal/graph"
	"omnc/internal/sim"
	"omnc/internal/trace"
)

// macAckBytes is the link-layer acknowledgement size charged to every
// reliable-unicast attempt (an 802.11 ACK frame is 14 bytes).
const macAckBytes = 14

// ETX returns traditional best-path routing on the ETX metric (Sec. 5, "ETX
// routing"), the paper's throughput-gain baseline: Dijkstra on the ETX
// metric picks one path, each hop forwards store-and-forward with MAC-layer
// retransmissions providing per-hop reliability, and nodes contend for
// channel shares like everyone else. No coding, no multipath.
func ETX() Protocol {
	return perSession("etx", attachETX)
}

// etxSession is ETX routing's data plane on the session shell: the current
// path, its per-hop components and the delivery count.
type etxSession struct {
	shell
	path     []int       // local node indices, source first
	nextHop  map[int]int // local index -> next local index
	appBytes int

	// relays and the attached sets let a re-route reuse or lazily attach
	// per-hop components; stalled silences the session while no route
	// survives.
	relays     map[int]*etxRelay
	attachedTx map[int]bool
	attachedRx map[int]bool
	stalled    bool

	srcSent   int64
	delivered int64
	target    int64 // stop after this many delivered packets (0 = none)
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

// attachETX computes the minimum-ETX path over the subgraph and attaches the
// session's per-hop components (source, relays, sink) to the Env's medium.
func attachETX(env *Env, sp SessionSpec, cfg Config) (Session, error) {
	sg := sp.Subgraph
	costs := make([]float64, len(sg.Links))
	for i, l := range sg.Links {
		costs[i] = 1 / l.Prob
	}
	path, _, ok := graph.ShortestPath(sg.ForwardGraph(costs), sg.Src, sg.Dst)
	if !ok {
		return nil, &graph.ErrNoPath{Src: sp.Src, Dst: sp.Dst}
	}
	s := &etxSession{
		path:       path,
		nextHop:    make(map[int]int, len(path)),
		appBytes:   cfg.AirPacketSize - cfg.Coding.GenerationSize,
		relays:     make(map[int]*etxRelay),
		attachedTx: make(map[int]bool),
		attachedRx: make(map[int]bool),
	}
	s.init(env, sg, cfg, uint32(sp.ID))
	s.ridesBursts = true // degraded, not disconnected: the route stands, MAC retries cope
	if cfg.MaxGenerations > 0 {
		s.target = int64(cfg.MaxGenerations) * int64(cfg.Coding.GenerationSize)
	}
	for h := 0; h+1 < len(path); h++ {
		s.nextHop[path[h]] = path[h+1]
	}
	s.attachPath()
	s.attach(s)
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
				s.mac.AttachTransmitter(s.macID(v), &etxSource{s: s, local: v}, math.Inf(1))
				s.attachedTx[v] = true
			}
		case h == len(s.path)-1:
			if !s.attachedRx[v] {
				s.mac.AttachSessionReceiver(s.macID(v), &etxSink{s: s, local: v}, s.id)
				s.attachedRx[v] = true
			}
		default:
			r := s.relays[v]
			if r == nil {
				r = &etxRelay{s: s, local: v, wake: wake{mac: s.mac, node: s.macID(v)}}
				s.relays[v] = r
			}
			if !s.attachedTx[v] {
				s.mac.AttachTransmitter(s.macID(v), r, math.Inf(1))
				s.attachedTx[v] = true
			}
			if !s.attachedRx[v] {
				s.mac.AttachSessionReceiver(s.macID(v), r, s.id)
				s.attachedRx[v] = true
			}
		}
	}
}

// crash implements dataPlane: a crashed relay's buffer dies with it.
func (s *etxSession) crash(local int) {
	if r := s.relays[local]; r != nil {
		r.queue = r.queue[:0]
	}
}

// rejoin implements dataPlane: a recovered node holds nothing to restore;
// the re-route that follows puts it back on a path if it is the best one.
func (s *etxSession) rejoin(int) {}

// stall implements dataPlane: the session is silent until a later epoch
// restores a route.
func (s *etxSession) stall() { s.stalled = true }

// replan implements dataPlane: it re-runs the minimum-ETX path computation
// over the links that survive the current faults, at their drifted
// qualities. No surviving route stalls the session until a later epoch
// restores one; a new route drops the old relays' buffers (ETX has no
// end-to-end recovery — per-hop MAC retries are its only reliability) and
// wakes the hops that have work.
func (s *etxSession) replan() {
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
	s.mac.Wake(s.macID(path[0]))
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
			s.mac.Wake(s.macID(local))
		}
	}
}

// Start implements Session.
func (s *etxSession) Start() { s.mac.Wake(s.macID(s.path[0])) }

// Finish implements Session.
func (s *etxSession) Finish(until float64) *Stats {
	st := s.finish(until, "etx")
	if st.Duration > 0 {
		st.Throughput = float64(s.delivered) * float64(s.appBytes) / st.Duration
	}
	st.GenerationsDecoded = int(s.delivered) / s.cfg.Coding.GenerationSize
	if s.obs != nil {
		st.Report = s.report(st)
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
			s.env.Eng.Schedule(ready-s.env.Eng.Now(), func() { s.mac.Wake(macID) })
			return nil
		}
	}
	s.srcSent++
	s.frames[src.local]++
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
	wake  wake // deferred MAC wake-up, coalesced per bucket
}

func (r *etxRelay) Receive(from int, payload interface{}) {
	s := r.s
	p, ok := payload.(etxPacket)
	if !ok || p.session != s.id {
		return
	}
	if _, ok := s.arrive(from, r.local); !ok || s.done {
		return
	}
	if _, on := s.nextHop[r.local]; !on {
		return // a stale in-flight frame reached a relay the route left behind
	}
	if s.obs != nil {
		s.obs.rx[r.local]++
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
	s.frames[r.local]++
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
	if !ok || p.session != s.id {
		return
	}
	if _, ok := s.arrive(from, k.local); !ok || s.done {
		return
	}
	if s.obs != nil {
		s.obs.rx[k.local]++
	}
	s.delivered++
	// A generation's worth of delivered packets is ETX's analogue of a
	// decode: it keeps trace-derived metrics (time-to-recover under faults)
	// comparable across the four protocols.
	if gs := int64(s.cfg.Coding.GenerationSize); s.cfg.Trace != nil && s.delivered%gs == 0 {
		s.deferRecord(trace.Event{
			Time:       s.eng.Now(),
			Type:       trace.EventDecode,
			Node:       k.local,
			From:       -1,
			Generation: int(s.delivered/gs) - 1,
		})
	}
	if s.target > 0 && s.delivered >= s.target {
		s.reachTarget()
	}
}
