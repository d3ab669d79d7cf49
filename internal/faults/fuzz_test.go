package faults

import (
	"errors"
	"testing"
)

// FuzzDecodeFaultPlan throws arbitrary bytes at the plan decoder. The
// contract under test: DecodePlan never panics, and every rejection — parse
// failure or semantic violation — wraps ErrInvalidPlan so callers can match
// it with errors.Is. An accepted plan must re-encode and decode to an
// equally valid plan (the validator is deterministic).
func FuzzDecodeFaultPlan(f *testing.F) {
	seeds := []string{
		`{"events": []}`,
		`{"seed": 7, "events": [{"at": 1, "kind": "crash", "node": 2}, {"at": 3, "kind": "recover", "node": 2}]}`,
		`{"events": [{"at": 0, "kind": "flap", "from": 0, "to": 1, "dur": 2}]}`,
		`{"events": [{"at": 0.5, "kind": "burst", "from": 3, "to": 4, "dur": 1, "bad_factor": 0.2, "mean_good": 0.4, "mean_bad": 0.1}]}`,
		`{"seed": 3, "events": [{"at": 8, "kind": "drift", "jitter": 0.3, "dur": 1}, {"at": 9, "kind": "drift"}]}`,
		// Malformed inputs the decoder must reject without panicking.
		`{"events": [{"at": 5, "kind": "crash", "node": 1}, {"at": 4, "kind": "crash", "node": 2}]}`,
		`{"events": [{"at": 1, "kind": "recover", "node": 9}]}`,
		`{"events": [{"at": 1, "kind": "flap", "from": 2, "to": 2, "dur": 1}]}`,
		`{"events": [{"at": 1, "kind": "flap", "from": 1, "to": 2, "dur": 1e999}]}`,
		`{"events": [{"at": -3, "kind": "crash", "node": 0}]}`,
		`{"events": [{"at": 1, "kind": "burst", "from": 1, "to": 2, "dur": 1, "bad_factor": 2}]}`,
		`{"events": [{"at": 1, "kind": "flap-end", "from": 1, "to": 2, "dur": 1}]}`,
		`{"events": [{"at": 1, "kind": "drift", "jitter": 1}]}`,
		`{"events": [{"at": 1, "kind": "drift", "jitter": 0.2, "dur": -1}]}`,
		`{"events": [{"at": 1, "kind": "drift-end", "jitter": 0.2, "dur": 1}]}`,
		`{"events"`,
		`[]`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlan(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidPlan) {
				t.Fatalf("rejection %v does not wrap ErrInvalidPlan", err)
			}
			return
		}
		// Accepted: the plan must survive a round trip and still validate.
		out, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted plan failed to encode: %v", err)
		}
		again, err := DecodePlan(out)
		if err != nil {
			t.Fatalf("accepted plan failed to re-decode: %v", err)
		}
		if err := again.Validate(0); err != nil {
			t.Fatalf("re-decoded plan no longer validates: %v", err)
		}
	})
}
