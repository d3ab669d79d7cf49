package protocol

import (
	"fmt"
	"math/rand"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/report"
	"omnc/internal/sim"
	"omnc/internal/trace"
)

// runtime is one coded session: it wires the session's per-role components
// (source encoder, re-encoding forwarders, destination decoder — see node),
// the session shell and the generation lifecycle together, and implements
// Session.
type runtime struct {
	shell
	pol   *Policy
	rng   *rand.Rand
	nodes []*node

	// Fault handling (rtfaults.go): rebuild re-solves the policy over the
	// surviving subgraph on every topology epoch (nil for OMNC, whose
	// planner re-solves a run's sessions jointly); gen is the live
	// generation, so recovered nodes can rejoin it with fresh state.
	// replanDown is the down-mask scratch recycled across epochs (nothing
	// retains it past applyPolicy).
	rebuild    Builder
	gen        *coding.Generation
	replanDown []bool

	decoded  int
	ackDelay float64
	genBytes int    // nominal application bytes per generation
	genData  []byte // reused workload buffer, refilled per generation
	genStart float64

	latencies  []float64
	innovative int64
	received   int64
}

// attachPolicy builds the policy for one session's subgraph and attaches a
// coded runtime for it to the Env. The builder doubles as the re-optimizer:
// on every topology epoch the surviving subgraph is re-solved through it.
func attachPolicy(env *Env, sp SessionSpec, cfg Config, build Builder) (*runtime, error) {
	pol, err := build(sp.Subgraph, cfg)
	if err != nil {
		return nil, err
	}
	if len(pol.Caps) != sp.Subgraph.Size() || len(pol.Credit) != sp.Subgraph.Size() {
		return nil, fmt.Errorf("protocol: policy %q sized for %d nodes, subgraph has %d",
			pol.Name, len(pol.Caps), sp.Subgraph.Size())
	}
	rt, err := attachRuntime(env, sp.Subgraph, pol, cfg, uint32(sp.ID))
	if err != nil {
		return nil, err
	}
	rt.rebuild = build
	return rt, nil
}

func attachRuntime(env *Env, sg *core.Subgraph, pol *Policy, cfg Config, id uint32) (*runtime, error) {
	nominalBlock := cfg.AirPacketSize - cfg.Coding.CoeffBytes()
	if nominalBlock <= 0 {
		return nil, fmt.Errorf("protocol: air packet size %d cannot carry %d coefficient bytes",
			cfg.AirPacketSize, cfg.Coding.CoeffBytes())
	}
	rt := &runtime{
		pol: pol,
		// Session id 0 draws the same stream as an exclusive session, so
		// single-session behaviour is one fixed point of the multi path.
		rng:      rand.New(rand.NewSource(cfg.Seed + 31*int64(id) + 1)),
		ackDelay: ackLatency(sg, cfg),
		genBytes: cfg.Coding.GenerationSize * nominalBlock,
		genData:  make([]byte, cfg.Coding.GenerationSize*cfg.Coding.BlockSize),
	}
	rt.init(env, sg, cfg, id)
	rt.nodes = make([]*node, sg.Size())
	for i := range rt.nodes {
		macID := rt.macID(i)
		n := &node{rt: rt, local: i, macID: macID, isSrc: i == sg.Src, isDst: i == sg.Dst}
		n.wake = wake{mac: rt.mac, node: macID}
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
	rt.attach(rt)
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
		rt.reachTarget()
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

// Finish implements Session: pooled resources (elimination slabs, queued
// packets) return to the arena so back-to-back sessions — benchmark
// iterations, parameter sweeps — recycle instead of reallocating, and the
// session's statistics are computed.
func (rt *runtime) Finish(until float64) *Stats {
	for _, n := range rt.nodes {
		n.shutdown()
	}
	st := rt.finish(until, rt.pol.Name)
	st.GenerationsDecoded = rt.decoded
	if st.Duration > 0 {
		st.Throughput = float64(rt.decoded) * float64(rt.genBytes) / st.Duration
	}
	st.InnovativeReceived, st.TotalReceived = rt.innovative, rt.received
	st.Gamma, st.RateIterations = rt.pol.Gamma, rt.pol.RateIterations
	st.GenerationLatencies = append([]float64(nil), rt.latencies...)
	if rt.obs != nil {
		st.Report = rt.report(st)
		lat := report.NewHistogram(report.DefaultLatencyBounds...)
		for _, l := range rt.latencies {
			lat.Observe(l)
		}
		st.Report.GenerationLatency = lat
	}
	return st
}

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
	outq    []*coding.Packet // pre-generated packets awaiting transmission
	enc     coding.Source    // source only (scheme-selected via NewSource)
	rec     coding.Relay     // forwarders (Recoder or ForwardBuffer per scheme)
	dec     *coding.Decoder  // destination
	txFrame sim.Frame        // reused: at most one frame of n is in flight
	wake    wake             // deferred MAC wake-up, coalesced per bucket
}

// deferWake schedules the node's coalesced wake-up at delay zero.
func (n *node) deferWake() { n.rt.deferWake(&n.wake) }

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
	n.rt.frames[n.local]++
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
	if !ok || pkt.Session != rt.id {
		return // another session's packet on the shared channel
	}
	fromLocal, ok := rt.arrive(from, n.local)
	if !ok || rt.done {
		return // sender outside the subgraph, or the session is over
	}
	if pkt.Generation != rt.currentGen {
		return // expired generation: discard (Sec. 4)
	}
	// Packets only flow downstream: a node ignores transmissions from nodes
	// that are not farther from the destination than itself.
	if rt.sg.ETXDist[fromLocal] <= rt.sg.ETXDist[n.local] {
		return
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
