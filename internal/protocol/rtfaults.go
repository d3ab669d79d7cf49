package protocol

import (
	"fmt"

	"omnc/internal/core"
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

// replan implements dataPlane: the policy builder re-solves the session
// over the subgraph that survives the current faults (replanLive) — MORE
// and oldMORE recompute their credits — and the new caps land on the MAC
// without disturbing in-flight frames. OMNC sessions have no builder: one
// subscriber re-plans all of a run's OMNC sessions jointly, by the same
// rules.
func (rt *runtime) replan() {
	if rt.rebuild == nil {
		return
	}
	replanLive([]*runtime{rt}, func(sgs []*core.Subgraph) ([]*Policy, error) {
		pol, err := rt.rebuild(sgs[0], rt.cfg)
		return []*Policy{pol}, err
	})
}

// replanLive re-plans the sessions still running over the subgraphs that
// survive the current faults — down nodes out, links at the injector's
// planning view — with one call to solve. A session whose destination is cut
// off stalls until a later epoch restores a path; a failed solve stalls
// every session it covered: the masked subgraphs can be degenerate in ways
// node selection would never produce, and waiting for the next epoch is the
// only sound reaction.
func replanLive(rts []*runtime, solve func([]*core.Subgraph) ([]*Policy, error)) {
	var (
		live  []*runtime
		sgs   []*core.Subgraph
		downs [][]bool
	)
	for _, rt := range rts {
		if rt.done {
			continue
		}
		down := rt.downMask()
		masked := rt.sg.Masked(down, rt.linkFactor)
		if _, _, ok := graph.ShortestPath(masked.ForwardGraph(nil), masked.Src, masked.Dst); !ok {
			rt.stall()
			continue
		}
		live = append(live, rt)
		sgs = append(sgs, masked)
		downs = append(downs, down)
	}
	if len(live) == 0 {
		return
	}
	pols, err := solve(sgs)
	if err != nil {
		for _, rt := range live {
			rt.stall()
		}
		return
	}
	for i, rt := range live {
		rt.applyPolicy(pols[i], downs[i])
	}
}

// linkFactor is the injector's planning view of the link between two local
// nodes: 0 inside a flap, the drifted-quality multiplier otherwise.
func (rt *runtime) linkFactor(i, j int) float64 {
	return rt.env.Faults.LinkFactor(rt.sg.Nodes[i], rt.sg.Nodes[j])
}

// downMask fills the runtime's replan scratch with the current down state of
// every subgraph node. The slice is recycled across topology epochs: Masked
// and applyPolicy both consume it synchronously and retain nothing, and fault
// handlers for one runtime never overlap, so one mask per runtime suffices.
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
