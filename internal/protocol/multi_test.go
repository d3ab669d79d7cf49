package protocol

import (
	"errors"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/topology"
)

// crossroads hosts two sessions through shared middle relays:
// S1(0) -> {2,3} -> T1(5), S2(1) -> {2,3} -> T2(6).
func crossroads(t *testing.T) *topology.Network {
	t.Helper()
	p := make([][]float64, 7)
	for i := range p {
		p[i] = make([]float64, 7)
	}
	set := func(a, b int, q float64) {
		p[a][b] = q
		p[b][a] = q
	}
	set(0, 2, 0.8)
	set(0, 3, 0.6)
	set(1, 2, 0.7)
	set(1, 3, 0.8)
	set(2, 5, 0.7)
	set(3, 5, 0.6)
	set(2, 6, 0.6)
	set(3, 6, 0.8)
	set(2, 3, 0.5)
	nw, err := topology.NewExplicit(p)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRunMultiSingleSession(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(91)
	cfg.Duration = 200
	cs, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 5}}, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.PerSession) != 1 {
		t.Fatalf("sessions = %d", len(cs.PerSession))
	}
	if cs.PerSession[0].GenerationsDecoded == 0 {
		t.Fatal("single concurrent session decoded nothing")
	}
	if cs.AggregateThroughput != cs.PerSession[0].Throughput {
		t.Fatal("aggregate must equal the single session")
	}
	if cs.JainFairness != 1 {
		t.Fatalf("Jain index of one session = %v, want 1", cs.JainFairness)
	}
}

func TestRunMultiTwoSessions(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(92)
	cfg.Duration = 300
	cs, err := RunMulti(nw,
		[]Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.PerSession) != 2 {
		t.Fatalf("sessions = %d", len(cs.PerSession))
	}
	for i, st := range cs.PerSession {
		if st.GenerationsDecoded == 0 {
			t.Fatalf("session %d decoded nothing (gamma %.0f)", i, st.Gamma)
		}
		if st.Policy != "omnc" {
			t.Fatalf("policy = %q", st.Policy)
		}
	}
	if cs.JainFairness <= 0 || cs.JainFairness > 1 {
		t.Fatalf("Jain index = %v outside (0,1]", cs.JainFairness)
	}

	// Sharing the relays must cost throughput versus running alone.
	solo, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 5}}, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.PerSession[0].Throughput > solo.PerSession[0].Throughput*1.1 {
		t.Fatalf("shared session (%v) outperformed solo (%v)",
			cs.PerSession[0].Throughput, solo.PerSession[0].Throughput)
	}
}

func TestValidateSessions(t *testing.T) {
	cases := []struct {
		name     string
		sessions []Endpoints
		ok       bool
	}{
		{"empty", nil, false},
		{"valid pair", []Endpoints{{0, 5}, {1, 6}}, true},
		{"src out of range", []Endpoints{{-1, 5}}, false},
		{"dst out of range", []Endpoints{{0, 7}}, false},
		{"src equals dst", []Endpoints{{3, 3}}, false},
		{"duplicate pair", []Endpoints{{0, 5}, {1, 6}, {0, 5}}, false},
		{"reversed pair ok", []Endpoints{{0, 5}, {5, 0}}, true},
	}
	for _, tc := range cases {
		err := ValidateSessions(7, tc.sessions)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrInvalidSession) {
				t.Errorf("%s: error %v does not wrap ErrInvalidSession", tc.name, err)
			}
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(93)
	if _, err := RunMulti(nw, nil, OMNC(core.Options{}), cfg); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("no sessions: err = %v, want ErrInvalidSession", err)
	}
	if _, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 0}}, OMNC(core.Options{}), cfg); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("degenerate endpoints: err = %v, want ErrInvalidSession", err)
	}
	if _, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 99}}, OMNC(core.Options{}), cfg); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("out-of-range endpoints: err = %v, want ErrInvalidSession", err)
	}
	if _, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 5}, {Src: 0, Dst: 5}}, OMNC(core.Options{}), cfg); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("duplicate sessions: err = %v, want ErrInvalidSession", err)
	}
	bad := cfg
	bad.Coding.GenerationSize = -1
	err := func() error {
		_, err := RunMulti(nw, []Endpoints{{Src: 0, Dst: 5}}, OMNC(core.Options{}), bad)
		return err
	}()
	if err == nil {
		t.Fatal("bad coding params must fail")
	}
	if errors.Is(err, ErrInvalidSession) {
		t.Fatalf("coding error %v must not masquerade as a session error", err)
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(94)
	cfg.Duration = 150
	eps := []Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}
	a, err := RunMulti(nw, eps, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(nw, eps, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerSession {
		if a.PerSession[i].Throughput != b.PerSession[i].Throughput {
			t.Fatalf("session %d not deterministic", i)
		}
		if a.PerSession[i].InnovativeReceived != b.PerSession[i].InnovativeReceived {
			t.Fatalf("session %d reception counts not deterministic", i)
		}
	}
	if a.AggregateThroughput != b.AggregateThroughput || a.JainFairness != b.JainFairness {
		t.Fatal("aggregate statistics not deterministic")
	}
}

// TestRunMultiSharedForwarderAttribution: when two sessions route through the
// same physical relays, each session's utility statistics must come from its
// own traffic — per-session counters, not the MAC's aggregate ones.
func TestRunMultiSharedForwarderAttribution(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(95)
	cfg.Duration = 300
	cs, err := RunMulti(nw,
		[]Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range cs.PerSession {
		if st.GenerationsDecoded == 0 {
			t.Fatalf("session %d decoded nothing", i)
		}
		// Each session transmits from at least its source, so a working
		// session can never report zero utility even though its forwarders
		// are shared with the other session.
		if st.NodeUtility <= 0 || st.NodeUtility > 1 {
			t.Fatalf("session %d node utility %v outside (0,1]", i, st.NodeUtility)
		}
		if st.PathUtility <= 0 || st.PathUtility > 1 {
			t.Fatalf("session %d path utility %v outside (0,1]", i, st.PathUtility)
		}
	}
}

// TestRunMultiMaxGenerations: sessions retire individually after their
// generation budget and the engine stops once the last one finishes — early
// termination now works in multi-unicast mode too.
func TestRunMultiMaxGenerations(t *testing.T) {
	nw := crossroads(t)
	cfg := fastConfig(96)
	cfg.Duration = 600
	cfg.MaxGenerations = 1
	cs, err := RunMulti(nw,
		[]Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}, OMNC(core.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range cs.PerSession {
		if st.GenerationsDecoded < 1 {
			t.Fatalf("session %d decoded %d generations", i, st.GenerationsDecoded)
		}
		if st.Duration >= cfg.Duration {
			t.Fatalf("session %d did not stop early (duration %v)", i, st.Duration)
		}
	}
}

// TestRunMultiValidatesSchemeConfig: RunMulti rejects bad scheme/redundancy
// configurations through Config.Validate with the typed coding sentinels.
func TestRunMultiValidatesSchemeConfig(t *testing.T) {
	nw := crossroads(t)
	eps := []Endpoints{{Src: 0, Dst: 5}}

	cfg := fastConfig(97)
	cfg.Scheme = coding.Scheme(99)
	if _, err := RunMulti(nw, eps, OMNC(core.Options{}), cfg); !errors.Is(err, coding.ErrInvalidScheme) {
		t.Fatalf("bad scheme: err = %v, want ErrInvalidScheme", err)
	}

	cfg = fastConfig(97)
	cfg.Redundancy = 0.5
	if _, err := RunMulti(nw, eps, OMNC(core.Options{}), cfg); !errors.Is(err, coding.ErrInvalidRedundancy) {
		t.Fatalf("sub-unit redundancy: err = %v, want ErrInvalidRedundancy", err)
	}
}

// TestRunMultiSchemes: every coding scheme carries multi-unicast traffic on
// the shared channel.
func TestRunMultiSchemes(t *testing.T) {
	nw := crossroads(t)
	eps := []Endpoints{{Src: 0, Dst: 5}, {Src: 1, Dst: 6}}
	for _, scheme := range []coding.Scheme{coding.SchemeRLNC, coding.SchemeRLNCE2E, coding.SchemeRS} {
		cfg := fastConfig(98)
		cfg.Duration = 200
		cfg.Scheme = scheme
		cs, err := RunMulti(nw, eps, OMNC(core.Options{}), cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if cs.AggregateThroughput <= 0 {
			t.Fatalf("%s: delivered nothing", scheme)
		}
	}
}
