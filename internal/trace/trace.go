// Package trace records protocol-level session events — transmissions,
// receptions, innovation decisions, generation turnover — for debugging and
// analysis. The runtime emits events into a Recorder; the package provides
// an in-memory buffer with query helpers and a JSONL writer for offline
// inspection.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventType classifies session events.
type EventType string

// Event types emitted by the protocol runtime.
const (
	// EventTx: a node handed a coded packet to the MAC.
	EventTx EventType = "tx"
	// EventRx: a node received a packet that passed the downstream filter.
	EventRx EventType = "rx"
	// EventInnovative: the received packet increased the node's rank.
	EventInnovative EventType = "innovative"
	// EventDiscard: the received packet was non-innovative or stale.
	EventDiscard EventType = "discard"
	// EventDecode: the destination completed a generation.
	EventDecode EventType = "decode"
	// EventGeneration: the session advanced to a new generation.
	EventGeneration EventType = "generation"
)

// Event types emitted by the fault injector (internal/faults) and the
// protocols' mid-session re-optimization. For these, Node carries the
// network node ID (or a link's From endpoint), From the link's To endpoint
// (-1 for node events), and Generation the injector's topology epoch.
const (
	// EventNodeCrash: a node crashed; its ports detached from the MAC.
	EventNodeCrash EventType = "crash"
	// EventNodeRecover: a crashed node came back with empty state.
	EventNodeRecover EventType = "recover"
	// EventLinkDown / EventLinkUp: a link-flap episode started / ended.
	EventLinkDown EventType = "linkdown"
	EventLinkUp   EventType = "linkup"
	// EventBurstStart / EventBurstEnd: a Gilbert–Elliott bursty-loss
	// episode opened / closed on a link.
	EventBurstStart EventType = "burststart"
	EventBurstEnd   EventType = "burstend"
	// EventDrift: every link's quality was re-drawn (a network-wide event:
	// Node and From are both -1); sessions re-plan when its dead time ends.
	EventDrift EventType = "drift"
	// EventReplan: a session re-optimized (rates, credits, or route) in
	// response to a topology epoch.
	EventReplan EventType = "replan"
)

// Event is one protocol occurrence.
type Event struct {
	// Time is the simulation time in seconds.
	Time float64 `json:"t"`
	// Type classifies the event.
	Type EventType `json:"type"`
	// Node is the local node index the event happened at.
	Node int `json:"node"`
	// From is the transmitting node for rx-side events, -1 otherwise.
	From int `json:"from"`
	// Generation is the generation the event concerns.
	Generation int `json:"gen"`
}

// Recorder consumes events. Implementations must tolerate high event rates.
type Recorder interface {
	Record(Event)
}

// Buffer is an in-memory Recorder with query helpers. Safe for concurrent
// use.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Record implements Recorder.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a copy of all events in record order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Count returns how many events of the given type were recorded.
func (b *Buffer) Count(t EventType) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// ByNode returns the events that happened at the given local node.
func (b *Buffer) ByNode(node int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, e := range b.events {
		if e.Node == node {
			out = append(out, e)
		}
	}
	return out
}

// Between returns events with t0 <= Time < t1.
func (b *Buffer) Between(t0, t1 float64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, e := range b.events {
		if e.Time >= t0 && e.Time < t1 {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL streams the buffer as one JSON object per line.
func (b *Buffer) WriteJSONL(w io.Writer) error {
	for _, e := range b.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// JSONLWriter is a streaming Recorder that writes each event immediately.
// Write errors are counted, not returned (Record has no error path); check
// Errors after the run.
type JSONLWriter struct {
	mu   sync.Mutex
	w    io.Writer
	errs int
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// Record implements Recorder.
func (jw *JSONLWriter) Record(e Event) {
	line, err := json.Marshal(e)
	if err != nil {
		jw.mu.Lock()
		jw.errs++
		jw.mu.Unlock()
		return
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err := jw.w.Write(append(line, '\n')); err != nil {
		jw.errs++
	}
}

// Errors returns the number of events lost to marshal or write failures.
func (jw *JSONLWriter) Errors() int {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.errs
}
