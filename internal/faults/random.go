package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"omnc/internal/seedmix"
)

// RNG streams derived from RandomPlanConfig.Seed via seedmix.Derive: each
// fault process samples from its own stream, so tuning one rate never
// perturbs another's schedule.
const (
	streamCrash int64 = iota + 1
	streamFlap
	streamBurst
	streamGE    // the Injector's Gilbert–Elliott sojourn stream
	streamDrift // the Injector's per-link quality-drift draws
)

// RandomPlanConfig parameterizes RandomPlan. Rates are Poisson intensities
// in events per second; zero disables that fault process.
type RandomPlanConfig struct {
	// Nodes are the candidate node IDs for crash/recover events. Protected
	// nodes (say, a session's endpoints) are simply left out.
	Nodes []int
	// Links are the candidate undirected links for flap and burst episodes.
	Links [][2]int
	// Horizon bounds event start times in seconds.
	Horizon float64
	// CrashRate is the node-crash intensity; MeanDowntime the mean
	// exponential crash-to-recover delay (a recovery drawn past the horizon
	// is dropped: the node stays down).
	CrashRate    float64
	MeanDowntime float64
	// FlapRate and MeanFlap drive hard link outages.
	FlapRate float64
	MeanFlap float64
	// BurstRate and MeanBurst drive Gilbert–Elliott episodes with the given
	// Bad-state factor (0 selects the Injector default).
	BurstRate float64
	MeanBurst float64
	BadFactor float64
	// Seed makes the plan reproducible.
	Seed int64
}

// RandomPlan samples a valid fault plan: exponential inter-arrival times per
// fault process, crashes only of currently-up candidates (each paired with a
// recovery when the drawn downtime fits the horizon), and episodes that
// never overlap on a link. The result always passes Validate.
func RandomPlan(cfg RandomPlanConfig) (*Plan, error) {
	if !(cfg.Horizon > 0) {
		return nil, fmt.Errorf("%w: horizon %v must be positive", ErrInvalidPlan, cfg.Horizon)
	}
	if cfg.MeanDowntime <= 0 {
		cfg.MeanDowntime = cfg.Horizon / 5
	}
	if cfg.MeanFlap <= 0 {
		cfg.MeanFlap = cfg.Horizon / 10
	}
	if cfg.MeanBurst <= 0 {
		cfg.MeanBurst = cfg.Horizon / 10
	}
	p := &Plan{Seed: seedmix.Derive(cfg.Seed, streamGE)}

	// Crashes: each drawn arrival picks an up candidate uniformly; its
	// recovery lands MeanDowntime later in expectation.
	if cfg.CrashRate > 0 && len(cfg.Nodes) > 0 {
		rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Seed, streamCrash)))
		downUntil := make(map[int]float64, len(cfg.Nodes))
		for t := rng.ExpFloat64() / cfg.CrashRate; t < cfg.Horizon; t += rng.ExpFloat64() / cfg.CrashRate {
			node := cfg.Nodes[rng.Intn(len(cfg.Nodes))]
			if until, down := downUntil[node]; down && t < until {
				continue // still down: no overlapping crash
			}
			up := t + rng.ExpFloat64()*cfg.MeanDowntime
			p.Events = append(p.Events, Event{At: t, Kind: NodeCrash, Node: node})
			if up < cfg.Horizon {
				p.Events = append(p.Events, Event{At: up, Kind: NodeRecover, Node: node})
				downUntil[node] = up
			} else {
				downUntil[node] = cfg.Horizon // stays down for good
			}
		}
	}

	// Link episodes: flaps and bursts share one non-overlap budget per link
	// (Validate rejects overlapping episodes regardless of kind).
	busyUntil := make(map[[2]int]float64, len(cfg.Links))
	episode := func(stream int64, rate, mean float64, kind Kind) {
		if rate <= 0 || len(cfg.Links) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seedmix.Derive(cfg.Seed, stream)))
		for t := rng.ExpFloat64() / rate; t < cfg.Horizon; t += rng.ExpFloat64() / rate {
			l := cfg.Links[rng.Intn(len(cfg.Links))]
			dur := rng.ExpFloat64() * mean
			if dur <= 0 {
				continue
			}
			key := linkKey(l[0], l[1])
			if t < busyUntil[key] {
				continue // would overlap the running episode
			}
			busyUntil[key] = t + dur
			ev := Event{At: t, Kind: kind, From: l[0], To: l[1], Duration: dur}
			if kind == BurstLoss {
				ev.BadFactor = cfg.BadFactor
			}
			p.Events = append(p.Events, ev)
		}
	}
	episode(streamFlap, cfg.FlapRate, cfg.MeanFlap, LinkFlap)
	episode(streamBurst, cfg.BurstRate, cfg.MeanBurst, BurstLoss)

	// Merge the per-process schedules into one time-ordered plan. The sort
	// is stable so equal-time events keep their generation order (crash
	// before its own recovery in particular).
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	if err := p.Validate(0); err != nil {
		// The construction maintains every invariant; a failure is a bug.
		return nil, err
	}
	return p, nil
}
