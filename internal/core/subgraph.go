// Package core implements the paper's primary contribution: the sUnicast
// optimization framework (Sec. 3.2) and the distributed rate-control
// algorithm of Table 1 (Sec. 3.3), together with the decentralized node
// selection procedure (Sec. 4) that precedes them.
package core

import (
	"fmt"
	"math"

	"omnc/internal/graph"
	"omnc/internal/topology"
)

// Link is a directed link of the selected forwarder subgraph, in local node
// indices, annotated with its one-way reception probability p_ij.
type Link struct {
	From, To int
	Prob     float64
}

// Subgraph is the outcome of node selection for one unicast session: the
// forwarders that may contribute to the session and the directed links
// between them. Links always point strictly closer (in ETX distance) to the
// destination, so the subgraph is a DAG.
type Subgraph struct {
	// Nodes maps local index -> original network node ID. Nodes[Src] is the
	// session source, Nodes[Dst] the destination.
	Nodes []int
	// Src and Dst are local indices (Src is always 0).
	Src, Dst int
	// Links are the directed forwarding links, local indices.
	Links []Link
	// ETXDist[i] is the ETX distance from local node i to the destination.
	ETXDist []float64
	// neighbors[i] lists local nodes within interference range of i
	// (regardless of link direction); this drives the broadcast MAC
	// constraint (4).
	neighbors [][]int
	// out[i] / in[i] index Links leaving/entering local node i.
	out, in [][]int
}

// ErrUnreachable reports that no forwarder subgraph connects the session
// endpoints.
type ErrUnreachable struct {
	Src, Dst int
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("core: destination %d unreachable from source %d", e.Dst, e.Src)
}

// Is matches the graph.ErrNoRoute sentinel.
func (e *ErrUnreachable) Is(target error) bool { return target == graph.ErrNoRoute }

// SelectNodes runs the decentralized node selection procedure of Sec. 4 on
// the full network: every node computes its ETX distance to the destination,
// and a node is selected as a potential forwarder if it is strictly closer
// to the destination than the source and lies on some strictly-decreasing
// path from the source. Links of the subgraph connect selected nodes within
// range whose ETX distance strictly decreases.
func SelectNodes(net *topology.Network, src, dst int) (*Subgraph, error) {
	n := net.Size()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("core: endpoints (%d,%d) out of range [0,%d)", src, dst, n)
	}
	if src == dst {
		return nil, fmt.Errorf("core: source equals destination (%d)", src)
	}

	// ETX distance of every node to the destination: Dijkstra from dst over
	// reversed links with cost ETX = 1/p (Sec. 4; [9]).
	rev := graph.New(n)
	for u := 0; u < n; u++ {
		for _, v := range net.Neighbors(u) {
			// Edge v->u in the reversed graph stands for real link u->v.
			rev.AddEdge(v, u, 1/net.Prob(u, v))
		}
	}
	etx, _ := graph.Dijkstra(rev, dst)
	if math.IsInf(etx[src], 1) {
		return nil, &ErrUnreachable{Src: src, Dst: dst}
	}

	// Candidates: strictly closer to the destination than the source, plus
	// the source itself.
	candidate := make([]bool, n)
	candidate[src] = true
	for v := 0; v < n; v++ {
		if v != src && etx[v] < etx[src] {
			candidate[v] = true
		}
	}

	// Keep only candidates reachable from the source along strictly
	// ETX-decreasing candidate links; unreachable candidates can never hear
	// session packets and would inflate the optimization for nothing.
	reach := make([]bool, n)
	queue := []int{src}
	reach[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.Neighbors(u) {
			if candidate[v] && !reach[v] && etx[v] < etx[u] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	if !reach[dst] {
		return nil, &ErrUnreachable{Src: src, Dst: dst}
	}
	// And only candidates that can still reach the destination along
	// decreasing links (prune dead ends).
	useful := make([]bool, n)
	useful[dst] = true
	queue = []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range net.Neighbors(v) {
			if reach[u] && !useful[u] && etx[v] < etx[u] {
				useful[u] = true
				queue = append(queue, u)
			}
		}
	}

	sg := &Subgraph{}
	local := make(map[int]int, n)
	add := func(v int) int {
		if li, ok := local[v]; ok {
			return li
		}
		li := len(sg.Nodes)
		local[v] = li
		sg.Nodes = append(sg.Nodes, v)
		sg.ETXDist = append(sg.ETXDist, etx[v])
		return li
	}
	sg.Src = add(src)
	for v := 0; v < n; v++ {
		if useful[v] && reach[v] {
			add(v)
		}
	}
	sg.Dst = local[dst]

	k := len(sg.Nodes)
	sg.neighbors = make([][]int, k)
	sg.out = make([][]int, k)
	sg.in = make([][]int, k)
	for li, u := range sg.Nodes {
		for _, v := range net.Neighbors(u) {
			lj, ok := local[v]
			if !ok {
				continue
			}
			sg.neighbors[li] = append(sg.neighbors[li], lj)
			if etx[v] < etx[u] {
				idx := len(sg.Links)
				sg.Links = append(sg.Links, Link{From: li, To: lj, Prob: net.Prob(u, v)})
				sg.out[li] = append(sg.out[li], idx)
				sg.in[lj] = append(sg.in[lj], idx)
			}
		}
	}
	if len(sg.out[sg.Src]) == 0 {
		return nil, &ErrUnreachable{Src: src, Dst: dst}
	}
	return sg, nil
}

// Masked returns a view of the subgraph under the current faults: crashed
// nodes and severed links are removed from the forwarding structure and
// drifted links carry their current quality. down[i] marks local node i as
// crashed; linkFactor (may be nil) is the multiplier on the link between two
// local nodes — 0 drops the link (a flap episode), anything else scales its
// Prob (1 for an undisturbed link). Crashed nodes lose their interference
// neighbourhood too — a dead radio neither forwards nor contends — but
// flapped links keep interfering (the radios still transmit; only delivery
// fails), so linkFactor filters Links, not neighbors.
//
// Nodes, Src, Dst and ETXDist are shared with the receiver (read-only by
// convention); Links, neighbors, out and in are rebuilt. The mask never
// re-runs node selection: the optimization re-solves over the surviving
// structure of the original selection, which is exactly the information a
// deployed session has mid-run.
func (sg *Subgraph) Masked(down []bool, linkFactor func(i, j int) float64) *Subgraph {
	isDown := func(i int) bool { return down != nil && i < len(down) && down[i] }
	out := &Subgraph{
		Nodes:   sg.Nodes,
		Src:     sg.Src,
		Dst:     sg.Dst,
		ETXDist: sg.ETXDist,
	}
	k := sg.Size()
	out.neighbors = make([][]int, k)
	out.out = make([][]int, k)
	out.in = make([][]int, k)
	for i := 0; i < k; i++ {
		if isDown(i) {
			continue
		}
		for _, j := range sg.neighbors[i] {
			if !isDown(j) {
				out.neighbors[i] = append(out.neighbors[i], j)
			}
		}
	}
	for _, l := range sg.Links {
		if isDown(l.From) || isDown(l.To) {
			continue
		}
		if linkFactor != nil {
			f := linkFactor(l.From, l.To)
			if f == 0 {
				continue
			}
			l.Prob = math.Min(1, l.Prob*f)
		}
		idx := len(out.Links)
		out.Links = append(out.Links, l)
		out.out[l.From] = append(out.out[l.From], idx)
		out.in[l.To] = append(out.in[l.To], idx)
	}
	return out
}

// Size returns the number of selected nodes.
func (sg *Subgraph) Size() int { return len(sg.Nodes) }

// Neighbors returns the local indices within interference range of local
// node i.
func (sg *Subgraph) Neighbors(i int) []int { return sg.neighbors[i] }

// Out returns indices into Links of links leaving local node i.
func (sg *Subgraph) Out(i int) []int { return sg.out[i] }

// In returns indices into Links of links entering local node i.
func (sg *Subgraph) In(i int) []int { return sg.in[i] }

// ForwardGraph returns the subgraph as a digraph with the provided per-link
// costs (len(costs) == len(Links)); nil costs mean unit costs.
func (sg *Subgraph) ForwardGraph(costs []float64) *graph.Digraph {
	g := graph.New(sg.Size())
	sg.forwardEdges(g, costs)
	return g
}

// ForwardGraphInto is ForwardGraph rebuilding into an existing digraph,
// reusing its adjacency storage. Edges are inserted in Links order either
// way, so the resulting graph — and every Dijkstra tie-break downstream — is
// identical to a freshly built one.
func (sg *Subgraph) ForwardGraphInto(g *graph.Digraph, costs []float64) {
	g.Reset(sg.Size())
	sg.forwardEdges(g, costs)
}

func (sg *Subgraph) forwardEdges(g *graph.Digraph, costs []float64) {
	for i, l := range sg.Links {
		c := 1.0
		if costs != nil {
			c = costs[i]
		}
		g.AddEdge(l.From, l.To, c)
	}
}

// PathCount returns the number of distinct source-to-destination paths in
// the forwarder DAG (the denominator of the paper's path-utility ratio,
// Fig. 4).
func (sg *Subgraph) PathCount() float64 {
	return graph.CountPaths(sg.ForwardGraph(nil), sg.Src, sg.Dst)
}
