package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"omnc/internal/seedmix"
	"omnc/internal/sim"
	"omnc/internal/topology"
	"omnc/internal/trace"
)

// Injector executes a validated Plan as first-class discrete events on a
// sim.Engine, drives the MAC-level consequences (crashed nodes' ports
// detach, flapped links stop delivering, bursty links run their
// Gilbert–Elliott chain as a reception-probability overlay, drifted links
// change quality), and notifies subscribers at every topology epoch so
// protocols can re-optimize mid-session.
//
// An epoch is a change of the effective topology: a crash, a recovery, a
// link episode starting or ending, or a quality drift and the end of its
// dead time. Intra-episode Gilbert–Elliott state flips do not bump the
// epoch — they are channel noise, not topology.
//
// The injector is the single owner of link state. The MAC sees, per directed
// link, the drifted quality times the open episode's factor (written through
// SetLinkFactor, so a flap or burst on a drifted link composes with the drift
// instead of overwriting it); planners see LinkFactor, which is 0 inside a
// flap and the quality multiplier otherwise.
//
// The injector addresses plan events by network node ID; mapNode translates
// those to the engine's MAC addresses (the identity in a full-network
// emulation, the subgraph-local index in an exclusive session). Events whose
// nodes fall outside the mapping still update the injector's own down/link
// state — the plan describes the whole network — but touch no MAC port.
type Injector struct {
	eng     sim.Engine
	mac     *sim.MAC
	net     *topology.Network // nominal link qualities
	rec     trace.Recorder
	mapNode func(int) (int, bool)
	plan    *Plan
	rng     *rand.Rand // Gilbert–Elliott sojourn draws

	epoch    int
	down     map[int]bool
	linkOut  map[[2]int]bool    // links inside a flap episode
	burstBad map[[2]int]float64 // links in a burst's Bad state: the factor
	drifted  *topology.Network  // current link qualities; nil until the first drift
	drifts   int                // drift events executed
	reinit   int                // open re-initiation windows (drift dead time)
	recovers map[int][]float64  // per node: scheduled recovery times, sorted
	subs     []func(Event)
}

// NewInjector schedules every event of the plan on the engine. The plan must
// already be validated against net; rec may be nil.
func NewInjector(eng sim.Engine, mac *sim.MAC, net *topology.Network, plan *Plan, mapNode func(int) (int, bool), rec trace.Recorder) *Injector {
	inj := &Injector{
		eng:      eng,
		mac:      mac,
		net:      net,
		rec:      rec,
		mapNode:  mapNode,
		plan:     plan,
		rng:      rand.New(rand.NewSource(seedmix.Derive(plan.Seed, streamGE))),
		down:     make(map[int]bool),
		linkOut:  make(map[[2]int]bool),
		burstBad: make(map[[2]int]float64),
		recovers: make(map[int][]float64),
	}
	for _, ev := range plan.Events {
		if ev.Kind == NodeRecover {
			inj.recovers[ev.Node] = append(inj.recovers[ev.Node], ev.At)
		}
	}
	for n := range inj.recovers {
		sort.Float64s(inj.recovers[n])
	}
	now := eng.Now()
	for _, ev := range plan.Events {
		ev := ev
		delay := ev.At - now
		if delay < 0 {
			delay = 0
		}
		eng.Schedule(delay, func() { inj.fire(ev) })
	}
	return inj
}

// Subscribe registers fn to run after every topology epoch, in subscription
// order, with the MAC already reflecting the new topology.
func (inj *Injector) Subscribe(fn func(Event)) { inj.subs = append(inj.subs, fn) }

// Epoch returns the number of topology changes executed so far.
func (inj *Injector) Epoch() int { return inj.epoch }

// NodeDown reports whether the node is currently crashed.
func (inj *Injector) NodeDown(node int) bool { return inj.down[node] }

// LinkFactor is the planning view of directed link (a, b): 0 while the link
// is inside a flap episode, otherwise the ratio of its drifted to its nominal
// reception probability (1 until the first drift). Burst episodes degrade a
// link but are channel noise, not something to plan around.
func (inj *Injector) LinkFactor(a, b int) float64 {
	if inj.linkOut[linkKey(a, b)] {
		return 0
	}
	return inj.quality(a, b)
}

// Reinitiating reports whether a drift's dead time is running: sessions stay
// silent, whatever other epochs fire, until the last open window closes.
func (inj *Injector) Reinitiating() bool { return inj.reinit > 0 }

// quality is the drift multiplier of directed link (a, b).
func (inj *Injector) quality(a, b int) float64 {
	if inj.drifted == nil || !inj.net.InRange(a, b) {
		return 1
	}
	return inj.drifted.Prob(a, b) / inj.net.Prob(a, b)
}

// WillRecover reports whether the plan schedules a recovery of node after
// the current simulated time — the difference between a session stalling
// through an outage and failing for good.
func (inj *Injector) WillRecover(node int) bool {
	times := inj.recovers[node]
	now := inj.eng.Now()
	i := sort.SearchFloat64s(times, now)
	for i < len(times) {
		if times[i] > now {
			return true
		}
		i++
	}
	return false
}

// emit records a fault event when tracing is enabled. Node carries the
// network node ID (or the link's From endpoint), From the link's To endpoint
// for link events, and Generation the epoch the event produced.
func (inj *Injector) emit(t trace.EventType, node, from int) {
	if inj.rec == nil {
		return
	}
	inj.rec.Record(trace.Event{
		Time:       inj.eng.Now(),
		Type:       t,
		Node:       node,
		From:       from,
		Generation: inj.epoch,
	})
}

// notify bumps the epoch and runs the subscribers.
func (inj *Injector) notify(ev Event) {
	inj.epoch++
	for _, fn := range inj.subs {
		fn(ev)
	}
}

// fire executes one plan event.
func (inj *Injector) fire(ev Event) {
	switch ev.Kind {
	case NodeCrash:
		inj.down[ev.Node] = true
		if macID, ok := inj.mapNode(ev.Node); ok {
			inj.mac.SetNodeDown(macID, true)
		}
		inj.emit(trace.EventNodeCrash, ev.Node, -1)
		inj.notify(ev)
	case NodeRecover:
		delete(inj.down, ev.Node)
		if macID, ok := inj.mapNode(ev.Node); ok {
			inj.mac.SetNodeDown(macID, false)
		}
		inj.emit(trace.EventNodeRecover, ev.Node, -1)
		inj.notify(ev)
	case LinkFlap:
		inj.linkOut[linkKey(ev.From, ev.To)] = true
		inj.applyLink(ev.From, ev.To)
		inj.emit(trace.EventLinkDown, ev.From, ev.To)
		inj.notify(ev)
		end := ev
		end.Kind = LinkRestore
		inj.eng.Schedule(ev.Duration, func() {
			delete(inj.linkOut, linkKey(end.From, end.To))
			inj.applyLink(end.From, end.To)
			inj.emit(trace.EventLinkUp, end.From, end.To)
			inj.notify(end)
		})
	case BurstLoss:
		inj.startBurst(ev)
	case QualityDrift:
		inj.drift(ev)
	}
}

// drift re-draws every link's quality around its current value, opens the
// re-initiation window and schedules the epoch that closes it.
func (inj *Injector) drift(ev Event) {
	current := inj.drifted
	if current == nil {
		current = inj.net
	}
	next, err := current.PerturbQuality(inj.plan.DriftSeed(inj.drifts), ev.Jitter)
	if err != nil {
		// Validate bounds the jitter; a failure here is a bug.
		panic(fmt.Sprintf("faults: drift: %v", err))
	}
	inj.drifted = next
	inj.drifts++
	for a := 0; a < inj.net.Size(); a++ {
		for _, b := range inj.net.Neighbors(a) {
			if a < b {
				inj.applyLink(a, b)
			}
		}
	}
	inj.reinit++
	inj.emit(trace.EventDrift, -1, -1)
	inj.notify(ev)
	end := ev
	end.Kind = DriftEnd
	inj.eng.Schedule(ev.Duration, func() {
		inj.reinit--
		inj.notify(end)
	})
}

// startBurst opens a Gilbert–Elliott episode: the link starts in the Bad
// state and alternates with exponential sojourns until the episode expires.
func (inj *Injector) startBurst(ev Event) {
	factor := ev.BadFactor
	if factor <= 0 {
		factor = 0.05
	}
	meanGood, meanBad := ev.MeanGood, ev.MeanBad
	if meanGood <= 0 {
		meanGood = 0.5
	}
	if meanBad <= 0 {
		meanBad = 0.1
	}
	until := inj.eng.Now() + ev.Duration
	key := linkKey(ev.From, ev.To)
	setBad := func(bad bool) {
		if bad {
			inj.burstBad[key] = factor
		} else {
			delete(inj.burstBad, key)
		}
		inj.applyLink(ev.From, ev.To)
	}
	setBad(true)
	inj.emit(trace.EventBurstStart, ev.From, ev.To)
	inj.notify(ev)

	// The chain's state flips are channel noise: they adjust the overlay
	// factor but bump no epoch.
	var flip func(bad bool)
	flip = func(bad bool) {
		if inj.eng.Now() >= until {
			setBad(false)
			end := ev
			end.Kind = BurstEnd
			inj.emit(trace.EventBurstEnd, ev.From, ev.To)
			inj.notify(end)
			return
		}
		setBad(bad)
		mean := meanGood
		if bad {
			mean = meanBad
		}
		sojourn := inj.rng.ExpFloat64() * mean
		if remaining := until - inj.eng.Now(); sojourn > remaining {
			sojourn = remaining
		}
		inj.eng.Schedule(sojourn, func() { flip(!bad) })
	}
	sojourn := inj.rng.ExpFloat64() * meanBad
	if sojourn > ev.Duration {
		sojourn = ev.Duration
	}
	inj.eng.Schedule(sojourn, func() { flip(false) })
}

// applyLink writes the link's current reception-probability multiplier —
// drifted quality times the open episode's factor — to both directions on
// the MAC, mapped onto its address space. A link with neither reverts to the
// nominal PHY probability.
func (inj *Injector) applyLink(a, b int) {
	ma, okA := inj.mapNode(a)
	mb, okB := inj.mapNode(b)
	if !okA || !okB {
		return
	}
	key := linkKey(a, b)
	episode := 1.0
	if inj.linkOut[key] {
		episode = 0
	} else if f, bad := inj.burstBad[key]; bad {
		episode = f
	} else if inj.drifted == nil {
		inj.mac.ClearLinkFactor(ma, mb)
		inj.mac.ClearLinkFactor(mb, ma)
		return
	}
	inj.mac.SetLinkFactor(ma, mb, inj.quality(a, b)*episode)
	inj.mac.SetLinkFactor(mb, ma, inj.quality(b, a)*episode)
}
