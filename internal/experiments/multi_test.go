package experiments

import (
	"reflect"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/metrics"
)

// tinyMultiConfig keeps multi-unicast scaling tests fast on one CPU.
func tinyMultiConfig(seed int64) MultiConfig {
	return MultiConfig{
		Base: Config{
			Nodes:         120,
			Density:       6,
			MinHops:       4,
			MaxHops:       10,
			Duration:      80,
			Capacity:      2e4,
			CBRRate:       1e4,
			Coding:        coding.Params{GenerationSize: 16, BlockSize: 4},
			AirPacketSize: 16 + 1024,
			Seed:          seed,
		},
		SessionCounts: []int{1, 2},
		Trials:        2,
	}
}

func TestRunMultiScalingProducesAllSeries(t *testing.T) {
	sc, err := RunMultiScaling(tinyMultiConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Points) != 2 {
		t.Fatalf("points = %d", len(sc.Points))
	}
	for _, pt := range sc.Points {
		for _, name := range []string{ProtoOMNC, ProtoMORE, ProtoOldMORE, ProtoETX} {
			agg, ok := pt.AggregateThroughput[name]
			if !ok || agg <= 0 {
				t.Fatalf("%d sessions: %s aggregate = %v", pt.Sessions, name, agg)
			}
			j, ok := pt.JainFairness[name]
			if !ok || j <= 0 || j > 1 {
				t.Fatalf("%d sessions: %s Jain = %v", pt.Sessions, name, j)
			}
		}
	}
	// One session is perfectly fair by definition.
	for _, name := range []string{ProtoOMNC, ProtoETX} {
		if j := sc.Points[0].JainFairness[name]; j != 1 {
			t.Fatalf("%s Jain at one session = %v, want 1", name, j)
		}
	}
}

func TestRunMultiScalingParallelMatchesSerial(t *testing.T) {
	cfg := tinyMultiConfig(8)
	cfg.Base.Workers = 1
	serial, err := RunMultiScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Base.Workers = 4
	par, err := RunMultiScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Points, par.Points) {
		t.Fatalf("worker count changed results:\nserial: %+v\nparallel: %+v",
			serial.Points, par.Points)
	}
}

func TestRunMultiScalingDeterministic(t *testing.T) {
	cfg := tinyMultiConfig(9)
	a, err := RunMultiScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("repeated runs diverge")
	}
}

func TestRunMultiScalingProgress(t *testing.T) {
	cfg := tinyMultiConfig(10)
	cfg.Base.Protocols = []string{ProtoETX}
	p := metrics.NewProgress(len(cfg.SessionCounts) * cfg.Trials)
	cfg.Base.Progress = p
	if _, err := RunMultiScaling(cfg); err != nil {
		t.Fatal(err)
	}
	if p.Done() != p.Total() {
		t.Fatalf("progress = %d/%d", p.Done(), p.Total())
	}
}

func TestRunMultiScalingRejectsBadCount(t *testing.T) {
	cfg := tinyMultiConfig(11)
	cfg.SessionCounts = []int{0}
	if _, err := RunMultiScaling(cfg); err == nil {
		t.Fatal("zero session count must fail")
	}
}
