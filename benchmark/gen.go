package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"

	"omnc"
)

// The generator turns --seed into every input a workload consumes: the
// deployment seed, the placed sessions, the per-operation session seeds and
// the daemon's Spec stream. It owns its random streams (SplitMix64, below)
// so nothing about the inputs depends on the program under test's own RNG
// plumbing; the program receives only what is generated here.

// rng is a SplitMix64 stream.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive folds a base seed and stream indices into a decorrelated seed.
func derive(seed int64, streams ...int64) int64 {
	z := mix64(uint64(seed))
	for _, s := range streams {
		z = mix64(z + uint64(s))
	}
	return int64(z)
}

// Stream identifiers, one per random process of the generator.
const (
	streamNetwork int64 = iota + 1
	streamPlacement
	streamOpSeed
	streamSpec
	streamResubmit
	streamProbe // the layer probes' own deployment and sessions
)

const (
	networkNodes   = 300
	networkDensity = 6
	minHops        = 4
	maxHops        = 10
)

// band is an inclusive range of a structural size: forwarder-subgraph nodes,
// or links, or the union of four subgraphs.
type band struct{ lo, hi int }

func (b band) has(v int) bool { return v >= b.lo && v <= b.hi }

// deployments is how many networks one run places its sessions on.
// Operation i runs on network i mod deployments, so every run averages over
// four deployments: the same forty sessions cost 4 % more or less from one
// 300-node deployment to the next, and that would otherwise be the largest
// part of the difference between two seeds.
const deployments = 4

// A profile fixes the size of the sessions a workload draws, so that what
// changes with the seed is which networks, which endpoints and which loss
// realizations — not how much work the run contains. Host time of one
// emulated session tracks the size of its forwarder subgraph (log-log
// correlation 0.97 on fig2-quick; the LP's tracks its link count, a
// four-session emulation's the union of its subgraphs), and uniformly random
// 4-10 hop placements span 8 to 65 nodes: forty of them from one seed cost up
// to 35 % more than forty from another.
//
// pattern is a repeating sequence of size bands; the operation in slot s of
// its network gets a session from pattern[s mod len]. Every pattern is
// centre-weighted — every other slot is the centre band, the rest step out
// on both sides — so half the operations are alike and the median latency
// rests on them, while the others keep smaller and larger inputs in the mix.
type profile struct {
	pattern []band
	// size is the structural size the pattern constrains; a negative size
	// fits no band.
	size func(sg *omnc.Subgraph) int
	// sessionsPerOp is 1, or 4 for multi-contend.
	sessionsPerOp int
	// union, when set, bounds the number of distinct nodes of an operation's
	// four subgraphs together (multi-contend's cost tracks it).
	union band
	// linkCap turns away larger subgraphs (plan); 0 means none.
	linkCap int
	// replans picks three removable forwarders per session (plan).
	replans bool
	// screen, when set, runs the candidate through the program once and
	// turns it away if the program's answer fails the workload's own output
	// check: the benchmark measures operations the program gets right, and
	// reports how many placements it had to turn away.
	screen func(sg *omnc.Subgraph) error
}

func nodeCount(sg *omnc.Subgraph) int { return sg.Size() }

// The two cost indices below are structural sizes in percent of a typical
// session, with the exponents host time showed when the profiles were drawn
// up (least squares over a few hundred random placements). They are part of
// the workload's definition — which sessions a run contains — not a model
// the measurements depend on.

// paperIndex sizes a 1 KiB four-generation session: its host time follows
// the subgraph size and, through the simulated time four generations take,
// the throughput the rate controller predicts (residual 0.15 in the log,
// against 0.23 for subgraph size alone).
func paperIndex(sg *omnc.Subgraph) int {
	if sg.Size() < 9 || sg.Size() > 23 {
		return -1
	}
	res, err := omnc.OptimizeRates(sg, omnc.RateOptions{Capacity: capacity})
	if err != nil || !(res.Gamma > 0) {
		return -1
	}
	return int(100*math.Pow(float64(sg.Size())/15, 1.2)*math.Pow(4000/res.Gamma, 0.67) + 0.5)
}

// planIndex sizes a sUnicast LP: the dense simplex costs about
// nodes^2.3 x links^1.6.
func planIndex(sg *omnc.Subgraph) int {
	if len(sg.Links) < 30 || len(sg.Links) > 70 {
		return -1
	}
	return int(100*math.Pow(float64(sg.Size())/20, 2.3)*math.Pow(float64(len(sg.Links))/50, 1.6) + 0.5)
}

// screenPlan is the plan workload's screen: the dense simplex returns a
// wrong optimum (below a feasible point, sometimes by an order of
// magnitude) or a negative rate on roughly one placement in a thousand of
// this size.
func screenPlan(sg *omnc.Subgraph) error {
	res, err := omnc.OptimizeRates(sg, omnc.RateOptions{Capacity: capacity})
	if err != nil {
		return err
	}
	lp, err := omnc.SolveOptimalRates(sg, capacity)
	if err != nil {
		return err
	}
	return checkPlan(lp, res, rescaledGamma(sg, res))
}

// centred builds the centre-weighted pattern c, l1, c, h1, c, l2, c, h2.
func centred(c, l1, h1, l2, h2 band) []band { return []band{c, l1, c, h1, c, l2, c, h2} }

var (
	// quickProfile: the middle of what random placements select (12-32 nodes).
	quickProfile = profile{pattern: centred(band{21, 23}, band{17, 19}, band{25, 27}, band{13, 15}, band{29, 31}),
		size: nodeCount, sessionsPerOp: 1}
	// paperProfile: the 1 KiB sessions cost 40 x more arithmetic per packet
	// and their host time keeps a 15 % scatter even at equal index, so they
	// run on small placements (9-23 nodes, index about 70) in three narrow
	// bands: more of them fit a window, and they are nearly alike.
	paperProfile = profile{pattern: []band{{64, 76}, {54, 63}, {64, 76}, {77, 90}}, size: paperIndex, sessionsPerOp: 1}
	// multiProfile: four sessions of 12-24 nodes whose subgraphs together
	// cover 60-64 nodes of the deployment (host time goes with the 2.7th
	// power of that number).
	multiProfile = profile{pattern: []band{{12, 24}}, size: nodeCount, sessionsPerOp: 4, union: band{60, 64}}
	// planProfile: 30-70 links keeps one solve near 20 ms, well inside
	// planLinkCap; within 10 % of the typical LP at the centre, stepping out
	// to about half and 1.7 times its size.
	planProfile = profile{pattern: centred(band{90, 110}, band{70, 89}, band{111, 135}, band{55, 69}, band{136, 170}), size: planIndex, sessionsPerOp: 1,
		linkCap: planLinkCap, replans: true, screen: screenPlan}
)

// planLinkCap bounds the plan workload's subgraphs: beyond it today's dense
// simplex needs seconds and can return a negative optimum.
const planLinkCap = 120

// placement is one placed unicast session.
type placement struct {
	Net      int // index of the deployment
	Src, Dst int
	Hops     int
	Nodes    int // forwarder-subgraph size
	Links    int
	// Down are the local indices of three forwarders whose individual
	// removal keeps the destination reachable (plan workload only).
	Down []int
}

// inputs is everything one run feeds the program, generated from the seed.
type inputs struct {
	Seed         int64
	NetworkSeeds []int64
	// Ops[i] are the sessions of operation i: one for the single-session
	// workloads, four for multi-contend; all on network i mod deployments.
	Ops [][]placement
	// OpSeeds[i] is operation i's session seed (losses and coefficients).
	OpSeeds []int64
	// Specs is the daemon's submission stream; Resubmit[i] >= 0 marks
	// operation i as a resubmission of that earlier operation's Spec.
	Specs    []string
	Resubmit []int
	// Candidates counts the endpoint pairs drawn; SkippedByCap counts those
	// the plan workload's link cap turned away.
	Candidates   int
	SkippedByCap int
	// ScreenedOut counts the placements the profile's screen turned away.
	ScreenedOut int
}

// hopCounts is a BFS over the deployment's neighbour lists.
func hopCounts(nw *omnc.Network, src int) []int {
	dist := make([]int, nw.Size())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range nw.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// reachable reports whether the subgraph's destination can still be reached
// from its source along forwarding links.
func reachable(sg *omnc.Subgraph) bool {
	seen := make([]bool, sg.Size())
	seen[sg.Src] = true
	queue := []int{sg.Src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, li := range sg.Out(u) {
			if v := sg.Links[li].To; !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen[sg.Dst]
}

// removableForwarders picks up to want forwarders (neither endpoint) whose
// individual crash leaves the session routable, scanning from a seeded
// offset.
func removableForwarders(sg *omnc.Subgraph, r *rng, want int) []int {
	k := sg.Size()
	var out []int
	start := r.intn(k)
	for step := 0; step < k && len(out) < want; step++ {
		i := (start + step) % k
		if i == sg.Src || i == sg.Dst {
			continue
		}
		down := make([]bool, k)
		down[i] = true
		if reachable(sg.Masked(down, nil)) {
			out = append(out, i)
		}
	}
	return out
}

// placer draws sessions on one deployment from its own placement stream.
type placer struct {
	nw   *omnc.Network
	net  int
	pf   *profile
	in   *inputs
	r    *rng
	used map[[2]int]bool
}

// draw returns the next endpoint pair that is 4-10 hops apart by BFS, whose
// node selection succeeds, and whose size falls in one of the wanted bands;
// it reports which band.
func (p *placer) draw(want []band) (*placement, *omnc.Subgraph, int, error) {
	for tries := 0; tries < 200000; tries++ {
		p.in.Candidates++
		src, dst := p.r.intn(p.nw.Size()), p.r.intn(p.nw.Size())
		if src == dst || p.used[[2]int{src, dst}] {
			continue
		}
		hops := hopCounts(p.nw, src)[dst]
		if hops < minHops || hops > maxHops {
			continue
		}
		sg, err := omnc.SelectForwarders(p.nw, src, dst)
		if err != nil {
			continue
		}
		if p.pf.linkCap > 0 && len(sg.Links) > p.pf.linkCap {
			p.in.SkippedByCap++
			continue
		}
		b := -1
		for i, bd := range want {
			if bd.has(p.pf.size(sg)) {
				b = i
				break
			}
		}
		if b < 0 {
			continue
		}
		if p.pf.screen != nil && !p.screened(src, dst, sg) {
			continue
		}
		pl := &placement{Net: p.net, Src: src, Dst: dst, Hops: hops, Nodes: sg.Size(), Links: len(sg.Links)}
		if p.pf.replans {
			if pl.Down = removableForwarders(sg, p.r, 3); len(pl.Down) < 3 {
				continue
			}
		}
		return pl, sg, b, nil
	}
	return nil, nil, 0, fmt.Errorf("placement: no session of the wanted size on deployment %d after 200000 draws", p.net)
}

// screenMemo remembers screen verdicts for the life of the process, keyed by
// deployment seed and endpoints: a run sets its workload up several times
// over the same candidates, and screening costs as much as the operation
// itself. The first set-up pays for it; setup_s is the median.
var screenMemo = map[[3]int64]bool{}

// screened reports whether the candidate passes the profile's screen.
func (p *placer) screened(src, dst int, sg *omnc.Subgraph) bool {
	key := [3]int64{p.in.NetworkSeeds[p.net], int64(src), int64(dst)}
	ok, known := screenMemo[key]
	if !known {
		ok = p.pf.screen(sg) == nil
		screenMemo[key] = ok
	}
	if !ok {
		p.in.ScreenedOut++
	}
	return ok
}

// placeSessions fills every operation slot. Operation i runs on deployment
// i mod deployments and, within it, takes the band pattern[(i div
// deployments) mod len(pattern)].
func placeSessions(nws []*omnc.Network, in *inputs, pf *profile, ops int) error {
	in.Ops = make([][]placement, ops)
	for k, nw := range nws {
		p := &placer{nw: nw, net: k, pf: pf, in: in, used: make(map[[2]int]bool),
			r: &rng{s: uint64(derive(in.Seed, streamPlacement, int64(k)))}}
		var mine []int // this deployment's operations, in order
		for i := k; i < ops; i += len(nws) {
			mine = append(mine, i)
		}
		if pf.sessionsPerOp > 1 {
			for _, i := range mine {
				if err := p.placeGroup(i); err != nil {
					return err
				}
			}
			continue
		}
		// Single-session operations: each draw fills the earliest open slot
		// whose band it fits, so no valid draw of a still-wanted size is
		// wasted.
		open := len(mine)
		for open > 0 {
			var want []band
			var slots []int
			for s, i := range mine {
				if in.Ops[i] != nil {
					continue
				}
				bd := pf.pattern[s%len(pf.pattern)]
				dup := false
				for _, w := range want {
					dup = dup || w == bd
				}
				if !dup {
					want = append(want, bd)
					slots = append(slots, i)
				}
			}
			pl, _, b, err := p.draw(want)
			if err != nil {
				return err
			}
			p.used[[2]int{pl.Src, pl.Dst}] = true
			in.Ops[slots[b]] = []placement{*pl}
			open--
		}
	}
	return nil
}

// placeGroup places the four sessions of multi-session operation i: four
// draws of the pattern's band whose subgraphs together cover a number of
// distinct nodes inside the profile's union band; a group outside it is
// drawn again.
func (p *placer) placeGroup(i int) error {
	for tries := 0; tries < 2000; tries++ {
		var group []placement
		nodes := make(map[int]bool)
		pairs := make(map[[2]int]bool)
		for len(group) < p.pf.sessionsPerOp {
			pl, sg, _, err := p.draw(p.pf.pattern[:1])
			if err != nil {
				return err
			}
			if pairs[[2]int{pl.Src, pl.Dst}] {
				continue
			}
			pairs[[2]int{pl.Src, pl.Dst}] = true
			for _, v := range sg.Nodes {
				nodes[v] = true
			}
			group = append(group, *pl)
		}
		if p.pf.union.has(len(nodes)) {
			p.in.Ops[i] = group
			return nil
		}
	}
	return fmt.Errorf("placement: no group of %d sessions covering %d-%d nodes on deployment %d",
		p.pf.sessionsPerOp, p.pf.union.lo, p.pf.union.hi, p.net)
}

// referenceOps is how many operations a traced run times untraced first: the
// leading quarter of the window.
func referenceOps(ops int) int { return (ops + 3) / 4 }

// referenceBase is where the daemon's reference Specs start: the first
// multiple of the client count past the window, so reference operation i
// stays on the same client (and connection) as window operation i.
func referenceBase(ops, clients int) int { return (ops + clients - 1) / clients * clients }

// newInputs seeds the streams that need no deployment: the network seeds and
// the per-operation session seeds.
func newInputs(seed int64, ops int) *inputs {
	in := &inputs{Seed: seed}
	for k := int64(0); k < deployments; k++ {
		in.NetworkSeeds = append(in.NetworkSeeds, derive(seed, streamNetwork, k))
	}
	for i := 0; i < ops; i++ {
		// Keep seeds positive and JSON-exact (below 2^53).
		in.OpSeeds = append(in.OpSeeds, derive(seed, streamOpSeed, int64(i))&(1<<52-1)+1)
	}
	return in
}

// specStream builds the daemon's submissions: a fig1 Spec per operation,
// three in four with a fresh seed (a new content address), one in four a
// resubmission of an earlier Spec of the same client (the re-land path).
// Operation i belongs to client i mod clients, so a resubmitted Spec has
// always landed before it is sent again.
//
// The stream runs a quarter past the window: the extra Specs are all fresh
// and feed a traced run's untraced reference pass, which cannot replay the
// window's own Specs without turning them into resubmissions. The last Spec
// of all is the warm-up operation's, for the same reason.
func (in *inputs) specStream(clients int) {
	r := &rng{s: uint64(derive(in.Seed, streamResubmit))}
	ops := len(in.OpSeeds)
	total := referenceBase(ops, clients) + referenceOps(ops) + 1 // + the warm-up Spec
	in.Specs = make([]string, total)
	in.Resubmit = make([]int, total)
	for i := range in.Specs {
		in.Resubmit[i] = -1
		if i >= ops {
			in.Specs[i] = fig1Spec(derive(in.Seed, streamSpec, int64(i))&(1<<52-1) + 1)
			continue
		}
		earlier := i / clients // operations this client has already sent
		if earlier > 0 && r.intn(4) == 0 {
			j := r.intn(earlier)*clients + i%clients
			for in.Resubmit[j] >= 0 {
				j = in.Resubmit[j]
			}
			in.Resubmit[i] = j
			in.Specs[i] = in.Specs[j]
			continue
		}
		in.Specs[i] = fig1Spec(derive(in.Seed, streamSpec, int64(i))&(1<<52-1) + 1)
	}
}

func fig1Spec(seed int64) string {
	return `{"version":1,"kind":"fig1","seed":` + strconv.FormatInt(seed, 10) + `}`
}

// hashNetwork folds the deployment's link structure into h.
func hashNetwork(h hash.Hash, nw *omnc.Network) {
	for i := 0; i < nw.Size(); i++ {
		for _, j := range nw.Neighbors(i) {
			fmt.Fprintf(h, "%d>%d:%s;", i, j, strconv.FormatFloat(nw.Prob(i, j), 'g', -1, 64))
		}
	}
}

// hash is the input hash: same seed, same hash; it covers the network, the
// placements, the operation seeds and the Spec stream.
func (in *inputs) hash(nws []*omnc.Network) string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d nets=%v\n", in.Seed, in.NetworkSeeds)
	for _, nw := range nws {
		hashNetwork(h, nw)
	}
	for i, op := range in.Ops {
		fmt.Fprintf(h, "op%d:", i)
		for _, p := range op {
			fmt.Fprintf(h, "net%d %d>%d h%d n%d l%d d%v;", p.Net, p.Src, p.Dst, p.Hops, p.Nodes, p.Links, p.Down)
		}
	}
	fmt.Fprintf(h, "\nseeds=%v\nspecs=%v\nresubmit=%v\n", in.OpSeeds, in.Specs, in.Resubmit)
	return hex.EncodeToString(h.Sum(nil))
}
