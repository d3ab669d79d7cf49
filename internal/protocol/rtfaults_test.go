package protocol

import (
	"testing"

	"omnc/internal/core"
	"omnc/internal/faults"
	"omnc/internal/trace"
)

// TestCrashingEveryRelayDisconnectsUntilRecovery: the diamond has exactly two
// relays; with both down the pair is cut off — the session stalls, decoding
// nothing, instead of failing (its destination is alive) — and the first
// recovery reconnects it.
func TestCrashingEveryRelayDisconnectsUntilRecovery(t *testing.T) {
	buf := trace.NewBuffer()
	cfg := fastConfig(63)
	cfg.Duration = 300
	cfg.Trace = buf
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{At: 60, Kind: faults.NodeCrash, Node: 1},
		{At: 100, Kind: faults.NodeCrash, Node: 2},
		{At: 200, Kind: faults.NodeRecover, Node: 1},
	}}
	if _, err := OMNC(core.Options{}).Run(diamond(t), 0, 3, cfg); err != nil {
		t.Fatal(err)
	}
	var connected, oneRelay, cutOff, recovered int
	for _, ev := range buf.Events() {
		if ev.Type != trace.EventDecode {
			continue
		}
		switch {
		case ev.Time < 60:
			connected++
		case ev.Time < 100:
			oneRelay++
		case ev.Time < 200:
			cutOff++
		default:
			recovered++
		}
	}
	if connected == 0 || oneRelay == 0 || recovered == 0 {
		t.Fatalf("decodes: %d connected, %d on one relay, %d after the recovery; want all positive",
			connected, oneRelay, recovered)
	}
	if cutOff != 0 {
		t.Fatalf("%d generations decoded with every relay down", cutOff)
	}
}
