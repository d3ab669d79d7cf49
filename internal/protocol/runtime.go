package protocol

import (
	"fmt"
	"math/rand"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/graph"
	"omnc/internal/report"
	"omnc/internal/sim"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// runtime is one coded session: it wires the session's per-role components
// (source encoder, re-encoding forwarders, destination decoder — see node),
// the shared Env and the generation lifecycle together, and implements
// Session.
//
// A session runs in one of two placements. Exclusive (protocol.Run): the
// session owns a private Env over its subgraph medium and nodes are
// addressed by subgraph-local index. Shared (RunMulti): several sessions
// attach to one Env over the full network, nodes are addressed by network
// ID, and packets carry the session tag so each session's components filter
// their own traffic off the common broadcast channel.
type runtime struct {
	net *topology.Network
	sg  *core.Subgraph
	pol *Policy
	cfg Config

	id     uint32 // session tag on the shared channel (0 when exclusive)
	shared bool   // attached to a multi-session Env
	env    *Env
	eng    sim.Engine // the session's engine view (Env.SessionEngine)
	mac    *sim.MAC
	rng    *rand.Rand
	nodes  []*node

	// traceFree recycles deferred rx-side trace handlers (see emitDeferred);
	// a plain slice suffices because pops (receive path) and pushes (the
	// handler's Fire) always run on the goroutine currently owning this
	// session — the engine goroutine serially, the session's shard worker
	// inside a parallel round — with a barrier between the two.
	traceFree []*traceEvent

	localOf map[int]int // network ID -> local index (shared or faulted runs)
	linkIdx map[[2]int]int
	linkRx  []int64 // shared: per-subgraph-link session deliveries

	// Fault handling (rtfaults.go): rebuild re-solves the policy over the
	// surviving subgraph on every topology epoch; failure carries the typed
	// abnormal-termination cause; gen is the live generation, so recovered
	// nodes can rejoin it with fresh state. replanDown is the down-mask
	// scratch recycled across epochs (replan and jointReplan both borrow it
	// within one fault event; nothing retains it past applyPolicy).
	rebuild    Builder
	failure    error
	gen        *coding.Generation
	replanDown []bool

	currentGen int
	decoded    int
	done       bool
	finishedAt float64
	ackDelay   float64
	genBytes   int    // nominal application bytes per generation
	genData    []byte // reused workload buffer, refilled per generation
	genStart   float64

	latencies  []float64
	innovative int64
	received   int64

	// obs is the report collector (rtreport.go), nil unless Config.Report
	// is set — the same nil-until-enabled contract as the fault overlays.
	obs *sessionObs
}

// emit records a protocol event when tracing is enabled. Only for call
// sites that run in serial engine context (Dequeue side, generation
// restarts, fault reactions); receive-path sites must use emitDeferred.
func (rt *runtime) emit(t trace.EventType, node, from int) {
	if rt.cfg.Trace == nil {
		return
	}
	rt.cfg.Trace.Record(trace.Event{
		Time:       rt.eng.Now(),
		Type:       t,
		Node:       node,
		From:       from,
		Generation: rt.currentGen,
	})
}

// traceEvent defers one trace record to serial engine context: the event is
// captured (with its timestamp) where it happened and recorded when the
// handler fires at delay zero. Receive callbacks run concurrently with
// other sessions' on the parallel engine, and the trace Recorder — though
// mutex-safe — would interleave their records nondeterministically;
// deferring through the calendar restores a deterministic record order on
// both engines.
type traceEvent struct {
	rt *runtime
	ev trace.Event
}

// Fire implements sim.Handler.
func (h *traceEvent) Fire() {
	h.rt.cfg.Trace.Record(h.ev)
	h.rt.traceFree = append(h.rt.traceFree, h)
}

// emitDeferred records a protocol event from the session's receive path.
func (rt *runtime) emitDeferred(t trace.EventType, node, from int) {
	if rt.cfg.Trace == nil {
		return
	}
	var h *traceEvent
	if n := len(rt.traceFree); n > 0 {
		h = rt.traceFree[n-1]
		rt.traceFree = rt.traceFree[:n-1]
	} else {
		h = &traceEvent{rt: rt}
	}
	h.ev = trace.Event{
		Time:       rt.eng.Now(),
		Type:       t,
		Node:       node,
		From:       from,
		Generation: rt.currentGen,
	}
	rt.eng.ScheduleHandler(0, h)
}

// newRuntime builds an exclusive session: a private Env over the subgraph
// medium, nodes in local indices.
func newRuntime(net *topology.Network, sg *core.Subgraph, pol *Policy, cfg Config) (*runtime, error) {
	env, err := NewEnv(&subgraphMedium{net: net, sg: sg}, cfg)
	if err != nil {
		return nil, err
	}
	// The exclusive medium addresses nodes by subgraph-local index, so the
	// injector maps the plan's network IDs through the selection.
	if err := env.InstallFaults(cfg.Faults, net, sg.Nodes, cfg.Trace); err != nil {
		return nil, err
	}
	return attachRuntime(env, net, sg, pol, cfg, 0, false)
}

// newSharedRuntime attaches one session of a multi-unicast run to the shared
// Env; the medium spans the full network, so components bind at network IDs.
func newSharedRuntime(env *Env, net *topology.Network, sg *core.Subgraph, pol *Policy, cfg Config, id uint32) (*runtime, error) {
	return attachRuntime(env, net, sg, pol, cfg, id, true)
}

func attachRuntime(env *Env, net *topology.Network, sg *core.Subgraph, pol *Policy, cfg Config, id uint32, shared bool) (*runtime, error) {
	nominalBlock := cfg.AirPacketSize - cfg.Coding.CoeffBytes()
	if nominalBlock <= 0 {
		return nil, fmt.Errorf("protocol: air packet size %d cannot carry %d coefficient bytes",
			cfg.AirPacketSize, cfg.Coding.CoeffBytes())
	}
	rt := &runtime{
		net:    net,
		sg:     sg,
		pol:    pol,
		cfg:    cfg,
		id:     id,
		shared: shared,
		env:    env,
		eng:    env.SessionEngine(id),
		mac:    env.MAC,
		// Session id 0 draws the same stream as an exclusive session, so
		// single-session behaviour is one fixed point of the multi path.
		rng:      rand.New(rand.NewSource(cfg.Seed + 31*int64(id) + 1)),
		ackDelay: ackLatency(sg, cfg),
		genBytes: cfg.Coding.GenerationSize * nominalBlock,
		genData:  make([]byte, cfg.Coding.GenerationSize*cfg.Coding.BlockSize),
	}
	if cfg.Report {
		rt.obs = newSessionObs(sg.Size())
	}
	if shared || env.Faults != nil {
		rt.localOf = make(map[int]int, sg.Size())
		for local, nid := range sg.Nodes {
			rt.localOf[nid] = local
		}
	}
	if shared {
		rt.linkIdx = make(map[[2]int]int, len(sg.Links))
		for li, l := range sg.Links {
			rt.linkIdx[[2]int{l.From, l.To}] = li
		}
		rt.linkRx = make([]int64, len(sg.Links))
	}
	rt.nodes = make([]*node, sg.Size())
	for i := range rt.nodes {
		macID := i
		if shared {
			macID = sg.Nodes[i]
		}
		n := &node{rt: rt, local: i, macID: macID, isSrc: i == sg.Src, isDst: i == sg.Dst}
		n.wake.n = n
		rt.nodes[i] = n
		if !n.isSrc {
			rt.mac.AttachSessionReceiver(macID, n, id)
		}
		excluded := pol.Exclude != nil && pol.Exclude[i]
		if !n.isDst && !excluded {
			rt.mac.AttachTransmitter(macID, n, pol.Caps[i])
			n.txAttached = true
		}
		n.excluded = excluded
	}
	if env.Faults != nil {
		env.Faults.Subscribe(rt.onFault)
	}
	env.AddSession()
	if err := rt.startGeneration(0); err != nil {
		return nil, err
	}
	return rt, nil
}

// startGeneration resets every node to the given generation.
func (rt *runtime) startGeneration(gen int) error {
	rt.currentGen = gen
	rt.genStart = rt.eng.Now()
	rt.emit(trace.EventGeneration, rt.sg.Src, -1)
	rt.rng.Read(rt.genData)
	g, err := coding.NewGeneration(gen, rt.cfg.Coding, rt.genData)
	if err != nil {
		return err
	}
	rt.gen = g
	for _, n := range rt.nodes {
		if err := n.reset(g); err != nil {
			return err
		}
	}
	return nil
}

// generationDecoded fires when the destination completes a generation: the
// ACK travels back over the best path and the source moves on (Sec. 3.1);
// intermediate nodes flush the expired generation (Sec. 4).
func (rt *runtime) generationDecoded() {
	rt.decoded++
	rt.latencies = append(rt.latencies, rt.eng.Now()-rt.genStart)
	rt.emitDeferred(trace.EventDecode, rt.sg.Dst, -1)
	if rt.cfg.MaxGenerations > 0 && rt.decoded >= rt.cfg.MaxGenerations {
		rt.done = true
		rt.finishedAt = rt.eng.Now()
		// SessionDone touches the Env's shared finished counter and may
		// Stop the engine; both must happen in serial engine context.
		rt.eng.Schedule(0, rt.env.SessionDone)
		return
	}
	gen := rt.currentGen + 1
	rt.eng.Schedule(rt.ackDelay, func() {
		if err := rt.startGeneration(gen); err != nil {
			// Parameters were validated up front; a failure here is a bug.
			panic(fmt.Sprintf("protocol: generation restart: %v", err))
		}
		for _, n := range rt.nodes {
			if !n.isDst && !n.excluded {
				rt.mac.Wake(n.macID)
			}
		}
	})
}

// Start implements Session: wake the source.
func (rt *runtime) Start() { rt.mac.Wake(rt.nodes[rt.sg.Src].macID) }

// run drives an exclusive session to completion.
func (rt *runtime) run() (*Stats, error) {
	rt.Start()
	rt.eng.Run(rt.cfg.Duration)
	st := rt.Finish(rt.cfg.Duration)
	if rt.failure != nil {
		return nil, rt.failure
	}
	return st, nil
}

// Err implements Session.
func (rt *runtime) Err() error { return rt.failure }

// Finish implements Session: pooled resources (elimination slabs, queued
// packets) return to the arena so back-to-back sessions — benchmark
// iterations, parameter sweeps — recycle instead of reallocating, and the
// session's statistics are computed.
func (rt *runtime) Finish(until float64) *Stats {
	for _, n := range rt.nodes {
		n.shutdown()
	}

	duration := until
	if rt.done && rt.finishedAt > 0 {
		duration = rt.finishedAt
	}
	st := &Stats{
		Policy:             rt.pol.Name,
		GenerationsDecoded: rt.decoded,
		Duration:           duration,
		InnovativeReceived: rt.innovative,
		TotalReceived:      rt.received,
		Gamma:              rt.pol.Gamma,
		RateIterations:     rt.pol.RateIterations,
		SelectedNodes:      rt.sg.Size(),
	}
	if duration > 0 {
		st.Throughput = float64(rt.decoded) * float64(rt.genBytes) / duration
	}
	st.GenerationLatencies = append([]float64(nil), rt.latencies...)

	if rt.shared {
		rt.sharedUtilities(st)
		if rt.obs != nil {
			st.Report = rt.buildReport(st)
		}
		return st
	}

	// Queue statistics over involved nodes (Fig. 3). The destination never
	// transmits, so it cannot be involved — skipping it keeps the utility
	// numerator consistent with the non-destination denominator below.
	st.QueuePerNode = make([]float64, rt.sg.Size())
	involved := 0
	queueSum := 0.0
	for i := range rt.nodes {
		st.QueuePerNode[i] = rt.mac.TimeAvgQueue(i)
		if i == rt.sg.Dst {
			continue
		}
		if rt.mac.FramesSent(i) > 0 {
			involved++
			queueSum += st.QueuePerNode[i]
		}
	}
	if involved > 0 {
		st.MeanQueue = queueSum / float64(involved)
	}

	// Node utility (Fig. 4): transmitting nodes over selected non-dst nodes.
	nonDst := rt.sg.Size() - 1
	if nonDst > 0 {
		st.NodeUtility = float64(involved) / float64(nonDst)
	}

	// Path utility (Fig. 4): paths whose links all delivered something.
	used := graph.New(rt.sg.Size())
	for _, l := range rt.sg.Links {
		if rt.mac.Delivered(l.From, l.To) > 0 {
			used.AddEdge(l.From, l.To, 1)
		}
	}
	total := rt.sg.PathCount()
	if total > 0 {
		st.PathUtility = graph.CountPaths(used, rt.sg.Src, rt.sg.Dst) / total
	}
	if rt.obs != nil {
		st.Report = rt.buildReport(st)
	}
	return st
}

// sharedUtilities attributes node and path utility to this session from its
// own counters: on a shared MAC the per-node frame and delivery statistics
// aggregate all sessions, so each session counts the frames its own ports
// handed to the MAC and the deliveries its components accepted. Queue
// statistics stay zero — a physical node's queue is a property of the shared
// channel, not of one session.
func (rt *runtime) sharedUtilities(st *Stats) {
	// The destination is excluded from the denominator, so a (hypothetically)
	// transmitting destination must not count as involved either.
	involved := 0
	for _, n := range rt.nodes {
		if !n.isDst && n.frames > 0 {
			involved++
		}
	}
	if nonDst := rt.sg.Size() - 1; nonDst > 0 {
		st.NodeUtility = float64(involved) / float64(nonDst)
	}
	used := graph.New(rt.sg.Size())
	for li, l := range rt.sg.Links {
		if rt.linkRx[li] > 0 {
			used.AddEdge(l.From, l.To, 1)
		}
	}
	if total := rt.sg.PathCount(); total > 0 {
		st.PathUtility = graph.CountPaths(used, rt.sg.Src, rt.sg.Dst) / total
	}
}

// FramesSent returns how many frames this session's port at local node i
// handed to the MAC — the per-session share of the physical node's traffic.
func (rt *runtime) FramesSent(i int) int64 { return rt.nodes[i].frames }

// node binds one selected forwarder's per-role component to the medium: a
// sim.Transmitter port feeding coded packets to the MAC and a sim.Receiver
// port absorbing them. Exactly one role is armed per generation — the source
// encoder (enc), the re-encoding forwarder (rec) or the destination decoder
// (dec) — and the port methods dispatch to that role's logic.
type node struct {
	rt         *runtime
	local      int
	macID      int // node address on the Env's medium (== local when exclusive)
	isSrc      bool
	isDst      bool
	excluded   bool
	txAttached bool // a transmitter port exists at the MAC for this node

	credit  float64
	frames  int64            // frames this session's port put on the air here
	outq    []*coding.Packet // pre-generated packets awaiting transmission
	enc     coding.Source    // source only (scheme-selected via NewSource)
	rec     coding.Relay     // forwarders (Recoder or ForwardBuffer per scheme)
	dec     *coding.Decoder  // destination
	txFrame sim.Frame        // reused: at most one frame of n is in flight
	wake    wakeEvent        // deferred MAC wake-up, coalesced per bucket
}

// wakeEvent defers a MAC.Wake from the node's receive path to serial engine
// context. Waking the MAC mutates shared channel state (and can draw from
// the MAC's RNG), which a session's Receive callback must not do while
// other sessions' callbacks run concurrently in the same parallel round.
// The queued flag coalesces multiple wake-ups of one node in one bucket —
// Wake is idempotent, so a single deferred call is equivalent.
type wakeEvent struct {
	n      *node
	queued bool
}

// Fire implements sim.Handler.
func (w *wakeEvent) Fire() {
	w.queued = false
	w.n.rt.mac.Wake(w.n.macID)
}

// deferWake schedules the node's coalesced wake-up at delay zero.
func (n *node) deferWake() {
	if n.wake.queued {
		return
	}
	n.wake.queued = true
	n.rt.eng.ScheduleHandler(0, &n.wake)
}

// reset re-arms the node for a new generation; pending credit from the
// expired generation is discarded with it, and the expired generation's
// pooled resources go back to the arena.
func (n *node) reset(g *coding.Generation) error {
	n.credit = 0
	n.shutdown() // expired generation's packets and slabs return to the arena (Sec. 4)
	cfg := n.rt.cfg
	switch {
	case n.isSrc:
		// A fresh Source per generation also resets the emission budget.
		enc, err := coding.NewSource(cfg.Scheme, g, n.rt.rng, cfg.Redundancy)
		if err != nil {
			return err
		}
		n.enc = enc
	case n.isDst:
		dec, err := coding.NewDecoder(g.ID, cfg.Coding)
		if err != nil {
			return err
		}
		n.dec = dec
	default:
		// The scheme decides whether this relay re-encodes (Recoder) or
		// forwards innovative packets verbatim (ForwardBuffer).
		rec, err := coding.NewRelay(cfg.Scheme, g.ID, cfg.Coding, n.rt.rng)
		if err != nil {
			return err
		}
		n.rec = rec
	}
	return nil
}

// shutdown releases the node's pooled state: queued packets and the
// decoder/recoder elimination slabs.
func (n *node) shutdown() {
	for _, pkt := range n.outq {
		pkt.Release()
	}
	n.outq = n.outq[:0]
	if n.dec != nil {
		n.dec.Close()
		n.dec = nil
	}
	if n.rec != nil {
		n.rec.Close()
		n.rec = nil
	}
}

// Dequeue implements sim.Transmitter (the component's TX port).
func (n *node) Dequeue() *sim.Frame {
	rt := n.rt
	if rt.done || n.isDst || n.excluded {
		return nil
	}
	if n.isSrc {
		return n.sourceDequeue()
	}
	return n.forwarderDequeue()
}

// sourceDequeue is the source-encoder component: emit a fresh random
// combination whenever the CBR workload has produced the bytes for it.
func (n *node) sourceDequeue() *sim.Frame {
	if n.enc == nil || !n.cbrAvailable() {
		return nil // enc is nil while the source is crashed
	}
	pkt := n.enc.Next()
	if pkt == nil {
		// Emission budget exhausted (Config.Redundancy): the source sits
		// out the rest of the generation; turnover arms a fresh Source.
		return nil
	}
	return n.frame(pkt)
}

// forwarderDequeue is the forwarder component's TX side. OMNC-style
// forwarders re-encode a fresh packet at transmission time, so the stream
// always spans the forwarder's current buffer ("all outgoing packets are
// generated by re-encoding existing innovative packets", Sec. 4).
// Credit-driven forwarders (MORE, oldMORE) transmit the queue of packets
// pre-generated when credit arrived — under congestion those age in the
// queue and go stale, which is exactly the failure mode Fig. 3 attributes
// to MORE.
func (n *node) forwarderDequeue() *sim.Frame {
	if n.rec == nil {
		return nil // crashed forwarder: volatile state is gone
	}
	if n.rt.pol.SendWhenNonEmpty {
		if pkt := n.rec.Next(); pkt != nil {
			return n.frame(pkt)
		}
		return nil
	}
	if len(n.outq) == 0 {
		return nil
	}
	pkt := n.outq[0]
	n.outq = n.outq[1:]
	return n.frame(pkt)
}

// cbrAvailable reports whether the CBR workload has produced the bytes of
// the current generation yet; if not, it arms a wake-up for when it will.
func (n *node) cbrAvailable() bool {
	rt := n.rt
	if rt.cfg.CBRRate <= 0 {
		return true
	}
	ready := float64(rt.currentGen+1) * float64(rt.genBytes) / rt.cfg.CBRRate
	if rt.eng.Now() >= ready {
		return true
	}
	macID := n.macID
	rt.eng.Schedule(ready-rt.eng.Now(), func() { rt.mac.Wake(macID) })
	return false
}

// frame wraps a coded packet for the MAC, transferring the caller's packet
// reference to it (the MAC releases on frame retirement). A node has at most
// one frame in flight — the MAC dequeues the next only after completing the
// previous — so the frame struct is reused across transmissions.
func (n *node) frame(pkt *coding.Packet) *sim.Frame {
	n.rt.emit(trace.EventTx, n.local, -1)
	n.frames++
	pkt.Session = n.rt.id
	n.txFrame = sim.Frame{Size: n.rt.cfg.AirPacketSize, Broadcast: true, Payload: pkt}
	return &n.txFrame
}

// QueueLen implements sim.Transmitter: the broadcast queue holds the
// pre-generated coded packets awaiting transmission (Fig. 3's metric).
// OMNC-style nodes and sources code on demand, so their queue stays empty.
func (n *node) QueueLen() int {
	if n.rt.done {
		return 0
	}
	return len(n.outq)
}

// earnCredit converts accumulated credit into pre-generated re-encoded
// packets on the broadcast queue.
func (n *node) earnCredit() {
	for n.credit >= 1 {
		n.credit--
		pkt := n.rec.Next()
		if pkt == nil {
			return
		}
		n.outq = append(n.outq, pkt)
	}
	n.deferWake()
}

// Receive implements sim.Receiver (the component's RX port): filter the
// shared channel down to this session's downstream traffic, then dispatch
// to the destination-decoder or forwarder role.
func (n *node) Receive(from int, payload interface{}) {
	rt := n.rt
	pkt, ok := payload.(*coding.Packet)
	if !ok || rt.done {
		return
	}
	if pkt.Session != rt.id {
		return // another session's packet on the shared channel
	}
	fromLocal := from
	if rt.shared {
		// On the shared channel `from` is a network ID; an exclusive MAC
		// already speaks local indices (localOf may still exist for faults).
		fl, ok := rt.localOf[from]
		if !ok {
			return // transmitter is not in this session's subgraph
		}
		fromLocal = fl
	}
	if pkt.Generation != rt.currentGen {
		return // expired generation: discard (Sec. 4)
	}
	// Packets only flow downstream: a node ignores transmissions from nodes
	// that are not farther from the destination than itself.
	if rt.sg.ETXDist[fromLocal] <= rt.sg.ETXDist[n.local] {
		return
	}
	if rt.linkRx != nil {
		if li, ok := rt.linkIdx[[2]int{fromLocal, n.local}]; ok {
			rt.linkRx[li]++
		}
	}
	rt.received++
	rt.emitDeferred(trace.EventRx, n.local, fromLocal)
	if rt.obs != nil {
		rt.obs.rx[n.local]++
	}
	if n.isDst {
		n.destReceive(fromLocal, pkt)
		return
	}
	n.forwarderReceive(fromLocal, pkt)
}

// destReceive is the destination-decoder component: progressive Gauss-Jordan
// absorption, generation turnover on full rank.
func (n *node) destReceive(fromLocal int, pkt *coding.Packet) {
	rt := n.rt
	if n.dec == nil {
		return // crashed destination: nothing to absorb into
	}
	// Add copies the packet into the decoder's preallocated rows, so the
	// MAC's delivery reference is enough: no clone, no ownership change.
	innovative, err := n.dec.Add(pkt)
	if err != nil {
		return
	}
	if innovative {
		rt.innovative++
		rt.emitDeferred(trace.EventInnovative, n.local, fromLocal)
		if rt.obs != nil {
			rt.obs.innov[n.local]++
			rt.obs.rank = append(rt.obs.rank, report.RankPoint{
				Time:       rt.eng.Now(),
				Generation: rt.currentGen,
				Rank:       n.dec.Rank(),
			})
		}
		if n.dec.Decoded() {
			rt.generationDecoded()
		}
	} else {
		rt.emitDeferred(trace.EventDiscard, n.local, fromLocal)
		if rt.obs != nil {
			rt.obs.discard[n.local]++
		}
	}
}

// forwarderReceive is the forwarder component's RX side: buffer innovative
// packets and convert receptions into transmissions under the policy's
// credit rules.
func (n *node) forwarderReceive(fromLocal int, pkt *coding.Packet) {
	rt := n.rt
	if n.rec == nil {
		return // crashed forwarder: volatile state is gone
	}
	// Full-rank nodes no longer accept packets (all incoming packets are
	// necessarily non-innovative, Sec. 4) — but MORE-style forwarders still
	// earn TX credit from hearing upstream transmissions, otherwise a filled
	// relay would fall silent mid-generation.
	if n.rec.Full() {
		rt.emitDeferred(trace.EventDiscard, n.local, fromLocal)
		if rt.obs != nil {
			rt.obs.discard[n.local]++
		}
		if rt.pol.CreditOnAnyReception {
			n.credit += rt.pol.Credit[n.local]
			n.earnCredit()
		} else if rt.pol.SendWhenNonEmpty {
			n.deferWake()
		}
		return
	}
	innovative, err := n.rec.Add(pkt)
	if err != nil {
		return
	}
	if innovative {
		rt.innovative++
		rt.emitDeferred(trace.EventInnovative, n.local, fromLocal)
		if rt.obs != nil {
			rt.obs.innov[n.local]++
		}
	} else {
		rt.emitDeferred(trace.EventDiscard, n.local, fromLocal)
		if rt.obs != nil {
			rt.obs.discard[n.local]++
		}
	}
	if rt.pol.SendWhenNonEmpty {
		n.deferWake()
		return
	}
	if innovative || rt.pol.CreditOnAnyReception {
		n.credit += rt.pol.Credit[n.local]
		n.earnCredit()
	}
}
