package faults

import (
	"math"
	"testing"

	"omnc/internal/sim"
	"omnc/internal/topology"
)

// The injector tests watch the MAC from outside: a hub (node 0) broadcasts
// back to back to four leaves of distinct link quality, and each leaf counts
// what it hears. The MAC draws once per leaf per frame whatever the link's
// probability, so two runs at one MAC seed whose links carry the same
// probabilities deliver exactly the same frames — equal counts are an exact
// statement about the reception probabilities, no tolerance needed.

const (
	rigHorizon = 30.0
	rigLeaves  = 4
)

func star(t *testing.T) *topology.Network {
	t.Helper()
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.9, 0.7, 0.5, 0.3},
		{0.9, 0, 0, 0, 0},
		{0.7, 0, 0, 0, 0},
		{0.5, 0, 0, 0, 0},
		{0.3, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// hub is a saturated broadcaster counting the frames it sends from `since`.
type hub struct {
	eng   sim.Engine
	since float64
	sent  int
	frame sim.Frame
}

func (h *hub) Dequeue() *sim.Frame {
	if h.eng.Now() >= h.since {
		h.sent++
	}
	h.frame = sim.Frame{Size: 100, Broadcast: true}
	return &h.frame
}

func (h *hub) QueueLen() int { return 0 }

// leaf counts receptions, in total and from `since` on.
type leaf struct {
	eng         sim.Engine
	since       float64
	total, late int
}

func (l *leaf) Receive(int, interface{}) {
	l.total++
	if l.eng.Now() >= l.since {
		l.late++
	}
}

type rig struct {
	nw     *topology.Network
	inj    *Injector // nil when run without a plan
	hub    *hub
	leaves [rigLeaves + 1]*leaf // indexed by node; [0] unused
}

// runRig drives the star for rigHorizon seconds under plan (nil: no injector
// at all) on eng, counting "late" traffic from since.
func runRig(t *testing.T, eng sim.Engine, plan *Plan, since float64) *rig {
	t.Helper()
	r := &rig{nw: star(t), hub: &hub{eng: eng, since: since}}
	mac, err := sim.NewMAC(eng, r.nw, sim.Config{Capacity: 1e5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mac.AttachTransmitter(0, r.hub, math.Inf(1))
	for k := 1; k <= rigLeaves; k++ {
		r.leaves[k] = &leaf{eng: eng, since: since}
		mac.AttachReceiver(k, r.leaves[k])
	}
	if plan != nil {
		if err := plan.Validate(r.nw.Size()); err != nil {
			t.Fatal(err)
		}
		r.inj = NewInjector(eng, mac, r.nw, plan, func(id int) (int, bool) { return id, true }, nil)
	}
	mac.Wake(0)
	eng.Run(rigHorizon)
	return r
}

func TestDriftZeroJitterLeavesProbabilitiesUntouched(t *testing.T) {
	bare := runRig(t, sim.NewEngine(), nil, 0)
	still := runRig(t, sim.NewEngine(), &Plan{Seed: 4, Events: []Event{{At: 5, Kind: QualityDrift}}}, 0)
	for k := 1; k <= rigLeaves; k++ {
		if f := still.inj.LinkFactor(0, k); f != 1 {
			t.Errorf("link (0,%d): jitter 0 gave planning factor %v, want exactly 1", k, f)
		}
		if bare.leaves[k].total != still.leaves[k].total {
			t.Errorf("leaf %d heard %d frames under a jitter-0 drift, %d without a plan",
				k, still.leaves[k].total, bare.leaves[k].total)
		}
	}
	if still.inj.Epoch() != 2 {
		t.Errorf("one drift is two epochs (drift, drift-end), got %d", still.inj.Epoch())
	}
}

func TestDriftsCompound(t *testing.T) {
	const seed, jitter, second = 11, 0.3, 10.0
	plan := &Plan{Seed: seed, Events: []Event{
		{At: 5, Kind: QualityDrift, Jitter: jitter},
		{At: second, Kind: QualityDrift, Jitter: jitter},
	}}
	r := runRig(t, sim.NewEngine(), plan, second)

	// The law is topology.PerturbQuality applied to the CURRENT qualities,
	// drift k seeded from the plan's own stream.
	once, err := r.nw.PerturbQuality(plan.DriftSeed(0), jitter)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.PerturbQuality(plan.DriftSeed(1), jitter)
	if err != nil {
		t.Fatal(err)
	}
	compounded := false
	for k := 1; k <= rigLeaves; k++ {
		want := twice.Prob(0, k) / r.nw.Prob(0, k)
		if got := r.inj.LinkFactor(0, k); got != want {
			t.Errorf("link (0,%d): factor %v after two drifts, want %v", k, got, want)
		}
		if r.inj.LinkFactor(0, k) != r.inj.LinkFactor(k, 0) {
			t.Errorf("link (0,%d): drift broke symmetry", k)
		}
		if twice.Prob(0, k) != once.Prob(0, k) {
			compounded = true
		}
		// The MAC's view tracks the compounded probability, not the nominal
		// one: ~20 000 frames after the second drift put sigma below 0.004.
		ratio := float64(r.leaves[k].late) / float64(r.hub.sent)
		if math.Abs(ratio-twice.Prob(0, k)) > 0.02 {
			t.Errorf("link (0,%d): delivered/sent %.3f after two drifts, want ~%.3f (nominal %.3f)",
				k, ratio, twice.Prob(0, k), r.nw.Prob(0, k))
		}
	}
	if !compounded {
		t.Fatal("the second drift moved nothing")
	}
}

func TestEpisodeOnDriftedLinkRestoresDriftedQuality(t *testing.T) {
	drift := Event{At: 2, Kind: QualityDrift, Jitter: 0.4}
	const after = 8.5 // both episodes below have closed by 8
	ref := runRig(t, sim.NewEngine(), &Plan{Seed: 6, Events: []Event{drift}}, after)
	if ref.inj.LinkFactor(0, 1) == 1 {
		t.Fatal("the drift left link (0,1) at its nominal quality; pick another seed")
	}
	for _, episode := range []Event{
		{At: 5, Kind: LinkFlap, From: 0, To: 1, Duration: 3},
		{At: 5, Kind: BurstLoss, From: 1, To: 0, Duration: 3, BadFactor: 0.1},
	} {
		got := runRig(t, sim.NewEngine(), &Plan{Seed: 6, Events: []Event{drift, episode}}, after)
		if got.leaves[1].total >= ref.leaves[1].total {
			t.Errorf("%s: the episode cost leaf 1 nothing (%d vs %d frames)",
				episode.Kind, got.leaves[1].total, ref.leaves[1].total)
		}
		for k := 1; k <= rigLeaves; k++ {
			// Same MAC seed, same draws: equal counts after the episode mean
			// link (0,k) carries exactly the drifted probability again.
			if got.leaves[k].late != ref.leaves[k].late {
				t.Errorf("%s: leaf %d heard %d frames after the episode closed, %d with no episode — the drifted quality was not restored",
					episode.Kind, k, got.leaves[k].late, ref.leaves[k].late)
			}
			if got.inj.LinkFactor(0, k) != ref.inj.LinkFactor(0, k) {
				t.Errorf("%s: planning factor of (0,%d) is %v after the episode, %v without",
					episode.Kind, k, got.inj.LinkFactor(0, k), ref.inj.LinkFactor(0, k))
			}
		}
	}
}

func TestFlapZeroesPlanningFactorOnDriftedLink(t *testing.T) {
	plan := &Plan{Seed: 6, Events: []Event{
		{At: 2, Kind: QualityDrift, Jitter: 0.4},
		{At: 5, Kind: LinkFlap, From: 0, To: 1, Duration: 100}, // still open at the horizon
		{At: 5, Kind: BurstLoss, From: 0, To: 2, Duration: 100},
	}}
	open := runRig(t, sim.NewEngine(), plan, 6)
	ref := runRig(t, sim.NewEngine(), &Plan{Seed: 6, Events: plan.Events[:1]}, 6)
	if f := open.inj.LinkFactor(0, 1); f != 0 {
		t.Errorf("flapped link plans at factor %v, want 0", f)
	}
	if open.leaves[1].late != 0 {
		t.Errorf("flapped link delivered %d frames", open.leaves[1].late)
	}
	// A burst is channel noise: planners keep seeing the drifted quality.
	if got, want := open.inj.LinkFactor(0, 2), ref.inj.LinkFactor(0, 2); got != want {
		t.Errorf("bursty link plans at factor %v, want the drifted %v", got, want)
	}
}

func TestDriftDrawsIndependentOfEngine(t *testing.T) {
	plan := &Plan{Seed: 21, Events: []Event{
		{At: 3, Kind: QualityDrift, Jitter: 0.35, Duration: 1},
		{At: 9, Kind: QualityDrift, Jitter: 0.2},
	}}
	serial := runRig(t, sim.NewEngine(), plan, 0)
	parallel := runRig(t, sim.NewParallelEngine(2), plan, 0)
	moved := false
	for k := 1; k <= rigLeaves; k++ {
		s, p := serial.inj.LinkFactor(0, k), parallel.inj.LinkFactor(0, k)
		if s != p {
			t.Errorf("link (0,%d): factor %v on the serial engine, %v on two workers", k, s, p)
		}
		if s != 1 {
			moved = true
		}
		if serial.leaves[k].total != parallel.leaves[k].total {
			t.Errorf("leaf %d heard %d frames serially, %d on two workers",
				k, serial.leaves[k].total, parallel.leaves[k].total)
		}
	}
	if !moved {
		t.Fatal("two drifts moved nothing")
	}
	if serial.inj.Reinitiating() || parallel.inj.Reinitiating() {
		t.Error("a dead-time window is still open at the horizon")
	}
}
