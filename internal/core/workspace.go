package core

import (
	"sync"

	"omnc/internal/graph"
)

// rateWorkspace owns every piece of scratch storage one rate-control solve
// consumes: the primal/dual vectors and recovery sums of every session, the
// shared congestion-price slots, SUB1's forwarder digraph and Dijkstra
// scratch, and the per-iteration temporaries. Solves draw a workspace from a
// package-level pool and return it on exit — the same arena discipline
// internal/coding/pool.go applies to packets — so the Lagrangian solve
// allocates nothing per iteration and topology-epoch replans recycle the
// previous epoch's storage instead of re-paying it.
//
// Every slice is re-zeroed on acquisition (fill below), so a pooled
// workspace is indistinguishable from freshly made storage and results stay
// bit-identical with Options.FreshWorkspace set — the property the solver
// reuse tests pin.
type rateWorkspace struct {
	// Flat arenas holding every session's vectors back to back, node-indexed
	// (b ... traceSumB) and link-indexed (lambda ... traceSumX); views cuts
	// them per session.
	b, sumB, avgB, prevAvgB, traceSumB []float64
	lambda, sumX, avgX, traceSumX      []float64
	views                              []sessionView

	// Shared congestion prices, one slot per network node that is a
	// receiver in some session. slot is node-indexed like b (-1: no price,
	// the session's own source); host[p*N+s] is session s's local node at
	// slot p's network node, -1 where s does not reach it; idSlot maps
	// network IDs to slots while the table is built.
	beta               []float64
	slot, host, idSlot []int

	xt, w  []float64
	onPath []int
	g      graph.Digraph
	pf     graph.PathFinder
}

// sessionView is one session's share of the workspace arenas.
type sessionView struct {
	b, sumB, avgB, traceSumB      []float64
	lambda, sumX, avgX, traceSumX []float64
	slot                          []int
}

// layout sizes the arenas for the sessions, cuts them into per-session
// views and builds the price-slot table, returning the views and the slot
// count. Building the table once makes the price update (15) a walk over
// each slot's hosts instead of a search of every session per node.
func (ws *rateWorkspace) layout(sessions []*Subgraph) ([]sessionView, int) {
	nodes, links, maxID := 0, 0, -1
	for _, sg := range sessions {
		nodes += sg.Size()
		links += len(sg.Links)
		for _, id := range sg.Nodes {
			maxID = max(maxID, id)
		}
	}
	for _, a := range []*[]float64{&ws.b, &ws.sumB, &ws.avgB, &ws.prevAvgB, &ws.traceSumB} {
		fill(a, nodes, 0)
	}
	for _, a := range []*[]float64{&ws.lambda, &ws.sumX, &ws.avgX, &ws.traceSumX} {
		fill(a, links, 0)
	}
	slot := fill(&ws.slot, nodes, -1)
	idSlot := fill(&ws.idSlot, maxID+1, -1)
	if cap(ws.views) < len(sessions) {
		ws.views = make([]sessionView, len(sessions))
	}
	views := ws.views[:len(sessions)]
	nSlots, no, lo := 0, 0, 0
	for s, sg := range sessions {
		k, nl := sg.Size(), len(sg.Links)
		views[s] = sessionView{
			b: ws.b[no : no+k], sumB: ws.sumB[no : no+k],
			avgB: ws.avgB[no : no+k], traceSumB: ws.traceSumB[no : no+k],
			lambda: ws.lambda[lo : lo+nl], sumX: ws.sumX[lo : lo+nl],
			avgX: ws.avgX[lo : lo+nl], traceSumX: ws.traceSumX[lo : lo+nl],
			slot: slot[no : no+k],
		}
		for local, id := range sg.Nodes {
			if local == sg.Src {
				continue
			}
			if idSlot[id] < 0 {
				idSlot[id] = nSlots
				nSlots++
			}
			views[s].slot[local] = idSlot[id]
		}
		no += k
		lo += nl
	}
	// A slot's load counts every session at its node, a session's source
	// included: its transmissions occupy the node's neighbourhood too.
	host := fill(&ws.host, nSlots*len(sessions), -1)
	for s, sg := range sessions {
		for local, id := range sg.Nodes {
			if p := idSlot[id]; p >= 0 {
				host[p*len(sessions)+s] = local
			}
		}
	}
	return views, nSlots
}

var ratePool = sync.Pool{New: func() any { return new(rateWorkspace) }}

// getRateWorkspace returns a workspace: pooled by default, freshly allocated
// when fresh is set (the fresh-allocate oracle of the reuse property tests).
func getRateWorkspace(fresh bool) *rateWorkspace {
	if fresh {
		return new(rateWorkspace)
	}
	return ratePool.Get().(*rateWorkspace)
}

// putRateWorkspace recycles the workspace unless it was a fresh oracle.
func putRateWorkspace(ws *rateWorkspace, fresh bool) {
	if !fresh {
		ratePool.Put(ws)
	}
}

// fill returns a slice of length n backed by *buf, growing it when needed,
// with every entry set to v. fill(buf, n, 0) is semantically identical to
// make([]T, n); the reuse is invisible to the caller.
func fill[T int | float64](buf *[]T, n int, v T) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	*buf = s
	return s
}
