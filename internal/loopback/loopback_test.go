package loopback

import (
	"testing"
	"time"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/topology"
)

func diamond(t *testing.T) (*topology.Network, *core.Subgraph) {
	t.Helper()
	nw, err := topology.NewExplicit([][]float64{
		{0, 0.8, 0.6, 0},
		{0.8, 0, 0, 0.7},
		{0.6, 0, 0, 0.9},
		{0, 0.7, 0.9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := core.SelectNodes(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return nw, sg
}

func TestRunSessionOverRealSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	nw, sg := diamond(t)
	// Small generations and generous pacing so several generations decode
	// within a second of wall time.
	rates := make([]float64, sg.Size())
	for i := range rates {
		rates[i] = 200_000 // bytes/s over loopback
	}
	rates[sg.Dst] = 0
	res, err := RunSession(nw, sg, Config{
		Coding:   coding.Params{GenerationSize: 8, BlockSize: 64},
		Rates:    rates,
		Duration: 1200 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GenerationsDecoded == 0 {
		t.Fatalf("nothing decoded over real sockets: %+v", res)
	}
	if res.Corrupted != 0 {
		t.Fatalf("%d corrupted generations", res.Corrupted)
	}
	if res.DatagramsForwarded == 0 {
		t.Fatal("channel emulator forwarded nothing")
	}
	// The diamond's links average ~0.75, so the loss process must have
	// dropped a noticeable share of datagrams.
	total := res.DatagramsForwarded + res.DatagramsDropped
	lossRate := float64(res.DatagramsDropped) / float64(total)
	if lossRate < 0.05 || lossRate > 0.6 {
		t.Fatalf("loss rate %.2f implausible for the diamond", lossRate)
	}
}

func TestRunSessionValidation(t *testing.T) {
	nw, sg := diamond(t)
	if _, err := RunSession(nw, sg, Config{
		Coding: coding.Params{GenerationSize: 0, BlockSize: 1},
		Rates:  make([]float64, sg.Size()),
	}); err == nil {
		t.Fatal("invalid coding params must fail")
	}
	if _, err := RunSession(nw, sg, Config{
		Coding: coding.Params{GenerationSize: 4, BlockSize: 16},
		Rates:  []float64{1},
	}); err == nil {
		t.Fatal("mis-sized rates must fail")
	}
}

func TestGenerationDataDeterministic(t *testing.T) {
	cfg := Config{Coding: coding.Params{GenerationSize: 4, BlockSize: 16}, Seed: 9}
	a := generationData(cfg, 3)
	b := generationData(cfg, 3)
	if string(a) != string(b) {
		t.Fatal("generation data must be deterministic")
	}
	c := generationData(cfg, 4)
	if string(a) == string(c) {
		t.Fatal("different generations must differ")
	}
	if len(a) != 64 {
		t.Fatalf("data length = %d", len(a))
	}
}
