package protocol

import (
	"fmt"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/graph"
)

// crash implements dataPlane: the node's power loss takes its credit,
// buffered packets and elimination state with it (the pooled resources
// return to the arena). The MAC keeps the dead node off the channel; the
// state here just must not survive into the recovery.
func (rt *runtime) crash(local int) {
	n := rt.nodes[local]
	n.credit = 0
	n.shutdown()
	n.enc = nil
}

// rejoin implements dataPlane: a recovered node re-arms for the live
// generation with empty state — a rebooted forwarder has everything it needs
// in the role itself, since coded traffic carries no per-packet obligations.
func (rt *runtime) rejoin(local int) {
	n := rt.nodes[local]
	if err := n.reset(rt.gen); err != nil {
		// Coding parameters were validated up front; a failure here is a bug.
		panic(fmt.Sprintf("protocol: rejoin: %v", err))
	}
	if !n.isDst && !n.excluded {
		rt.mac.Wake(n.macID)
	}
}

// replan implements dataPlane: it recomputes the session's policy over the
// subgraph that survives the current faults. If the destination is
// unreachable the session stalls (all transmitters go quiet) until a later
// epoch restores a path; if the protocol has a policy builder it re-solves
// — OMNC re-runs the Lagrangian rate allocation, MORE/oldMORE recompute
// their credits — and the new caps land on the MAC without disturbing
// in-flight frames.
func (rt *runtime) replan() {
	down := rt.downMask()
	masked := rt.sg.Masked(down, rt.linkFactor)
	if _, _, ok := graph.ShortestPath(masked.ForwardGraph(nil), masked.Src, masked.Dst); !ok {
		rt.stall()
		return
	}
	pol := rt.pol
	if rt.rebuild != nil {
		p, err := rt.rebuild(masked, rt.cfg)
		if err != nil {
			// The masked subgraph can be degenerate in ways node selection
			// would never produce; waiting for the next epoch is the only
			// sound reaction.
			rt.stall()
			return
		}
		pol = p
	}
	rt.applyPolicy(pol, down)
}

// linkFactor is the injector's planning view of the link between two local
// nodes: 0 inside a flap, the drifted-quality multiplier otherwise.
func (rt *runtime) linkFactor(i, j int) float64 {
	return rt.env.Faults.LinkFactor(rt.sg.Nodes[i], rt.sg.Nodes[j])
}

// downMask fills the runtime's replan scratch with the current down state of
// every subgraph node. The slice is recycled across topology epochs: Masked
// and applyPolicy both consume it synchronously and retain nothing, and fault
// handlers for one runtime never overlap, so one mask per runtime suffices
// even when jointReplan re-plans after the per-session handlers.
func (rt *runtime) downMask() []bool {
	inj := rt.env.Faults
	if cap(rt.replanDown) < rt.sg.Size() {
		rt.replanDown = make([]bool, rt.sg.Size())
	}
	down := rt.replanDown[:rt.sg.Size()]
	for i, nid := range rt.sg.Nodes {
		down[i] = inj.NodeDown(nid)
	}
	return down
}

// stall implements dataPlane: it silences every transmitter of the session until a later epoch
// re-plans successfully. Received state is kept: a stall is an outage, not a
// crash.
func (rt *runtime) stall() {
	for _, n := range rt.nodes {
		n.excluded = true
	}
}

// applyPolicy installs a re-solved policy mid-run: exclusion flags merge the
// optimizer's choices with the currently-crashed set, caps update in place
// on the MAC (preserving token-bucket and carrier-sense state), and nodes
// re-included after an earlier exclusion attach their port on first use.
func (rt *runtime) applyPolicy(pol *Policy, down []bool) {
	rt.pol = pol
	for i, n := range rt.nodes {
		excluded := down[i] || (pol.Exclude != nil && pol.Exclude[i])
		n.excluded = excluded
		if n.isDst || excluded {
			continue
		}
		if !n.txAttached {
			rt.mac.AttachTransmitter(n.macID, n, pol.Caps[i])
			n.txAttached = true
		} else {
			rt.mac.SetPortCap(n.macID, n, pol.Caps[i])
		}
		rt.mac.Wake(n.macID)
	}
}

// jointReplan is OMNCMulti's additional epoch subscriber: where each
// session's own onFault handles state loss and reachability, this handler
// re-runs the joint rate controller across every live, reachable session so
// the shared congestion prices keep dividing each neighbourhood's surviving
// capacity. It subscribes after the per-session handlers, so it observes
// their crash/rejoin effects. On controller failure the old rates stand.
func jointReplan(env *Env, rts []*runtime, opts core.Options, utilization float64) func(faults.Event) {
	return func(faults.Event) {
		if env.Faults.Reinitiating() {
			return // every session is silent until the drift's window closes
		}
		type liveSession struct {
			rt     *runtime
			masked *core.Subgraph
			down   []bool
		}
		var live []liveSession
		for _, rt := range rts {
			if rt.done {
				continue
			}
			down := rt.downMask()
			masked := rt.sg.Masked(down, rt.linkFactor)
			if _, _, ok := graph.ShortestPath(masked.ForwardGraph(nil), masked.Src, masked.Dst); !ok {
				continue // the session's own handler has stalled it
			}
			live = append(live, liveSession{rt: rt, masked: masked, down: down})
		}
		if len(live) == 0 {
			return
		}
		multi := make([]core.MultiSession, len(live))
		for i, l := range live {
			multi[i] = core.MultiSession{Subgraph: l.masked}
		}
		mc, err := core.NewMultiRateController(multi, opts)
		if err != nil {
			return
		}
		joint, err := mc.Run()
		if err != nil {
			return
		}
		minRate := 1e-4 * opts.Capacity
		for i, l := range live {
			sg := l.masked
			rates := joint.PerSession[i].SupportingRates(sg)
			caps, _ := core.RescaleFeasible(sg, rates, utilization*opts.Capacity)
			exclude := make([]bool, sg.Size())
			for j, b := range caps {
				if j != sg.Src && b < minRate {
					exclude[j] = true
				}
			}
			l.rt.applyPolicy(&Policy{
				Name:             l.rt.pol.Name,
				Caps:             caps,
				Credit:           make([]float64, sg.Size()),
				SendWhenNonEmpty: true,
				Exclude:          exclude,
				Gamma:            joint.PerSession[i].Gamma,
			}, l.down)
		}
	}
}
