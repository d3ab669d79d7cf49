package omnc_test

import (
	"errors"
	"testing"

	"omnc"
)

// TestInvalidPHYIsMatchable: a partially specified PHY fails loudly and the
// failure matches the ErrInvalidPHY sentinel.
func TestInvalidPHYIsMatchable(t *testing.T) {
	pts := []omnc.Point{{X: 0}, {X: 50}}
	for _, phy := range []omnc.PHY{
		{Range: 50},              // no width
		{Width: 0.2},             // no range
		{Range: -1, Width: 0.2},  // negative range
		{Range: 50, Width: -0.1}, // negative width
	} {
		_, err := omnc.NetworkFromPositions(pts, phy)
		if err == nil {
			t.Errorf("PHY %+v: expected error", phy)
			continue
		}
		if !errors.Is(err, omnc.ErrInvalidPHY) {
			t.Errorf("PHY %+v: error %v does not match ErrInvalidPHY", phy, err)
		}
	}
	// The zero value still selects the default model.
	if _, err := omnc.NetworkFromPositions(pts, omnc.PHY{}); err != nil {
		t.Errorf("zero-value PHY: %v", err)
	}
}

// TestNoRouteIsMatchable: disconnected endpoints surface as ErrNoRoute from
// both node selection and the unified Run entry point.
func TestNoRouteIsMatchable(t *testing.T) {
	// Two nodes far outside each other's 100 m range: no links at all.
	nw, err := omnc.NetworkFromPositions([]omnc.Point{{X: 0}, {X: 1000}}, omnc.PHY{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omnc.SelectForwarders(nw, 0, 1); !errors.Is(err, omnc.ErrNoRoute) {
		t.Errorf("SelectForwarders error %v does not match ErrNoRoute", err)
	}
	for _, proto := range []omnc.Protocol{omnc.OMNC(omnc.RateOptions{}), omnc.ETX()} {
		_, err := omnc.Run(nw, 0, 1, proto, omnc.SessionConfig{Duration: 1})
		if !errors.Is(err, omnc.ErrNoRoute) {
			t.Errorf("%s: error %v does not match ErrNoRoute", proto.Name(), err)
		}
	}
}

// TestInvalidConfigRejectedByEveryRunner: every protocol validates the
// session configuration in both entry points — a degenerate generation
// returns an error instead of panicking, and an out-of-range redundancy
// matches ErrInvalidRedundancy.
func TestInvalidConfigRejectedByEveryRunner(t *testing.T) {
	nw, err := omnc.NetworkFromMatrix([][]float64{
		{0, 0.8, 0.6, 0},
		{0.8, 0, 0, 0.7},
		{0.6, 0, 0, 0.9},
		{0, 0.7, 0.9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  omnc.SessionConfig
		is   error
	}{
		{"zero generation", omnc.SessionConfig{Coding: omnc.CodingParams{GenerationSize: 0, BlockSize: 16}, Duration: 1}, nil},
		{"redundancy 0.5", omnc.SessionConfig{Redundancy: 0.5, Duration: 1}, omnc.ErrInvalidRedundancy},
	}
	runners := map[string]func(omnc.Protocol, omnc.SessionConfig) error{
		"Run": func(p omnc.Protocol, cfg omnc.SessionConfig) error {
			_, err := omnc.Run(nw, 0, 3, p, cfg)
			return err
		},
		"RunMulti": func(p omnc.Protocol, cfg omnc.SessionConfig) error {
			_, err := omnc.RunMulti(nw, []omnc.Endpoints{{Src: 0, Dst: 3}}, p, cfg)
			return err
		},
	}
	for _, c := range configs {
		for pname, proto := range chaosProtocols() {
			for rname, run := range runners {
				c, proto, run := c, proto, run
				t.Run(c.name+"/"+pname+"/"+rname, func(t *testing.T) {
					err := run(proto, c.cfg)
					if err == nil {
						t.Fatal("invalid config accepted")
					}
					if c.is != nil && !errors.Is(err, c.is) {
						t.Fatalf("error %v does not match %v", err, c.is)
					}
				})
			}
		}
	}
}
