// Package report defines the structured per-session report of an emulated
// run: aggregated, machine-readable counters where package trace is the raw
// event log. A Report is assembled once, at session Finish, from counter
// hooks that follow the fault-overlay discipline — nil until enabled, no
// extra RNG draws, nothing but an integer bump on the hot path — so a run
// with reporting disabled is bit-identical to a build without the feature.
//
// The report is JSON-encodable end to end; `omnc-sim -report out.json` dumps
// it for offline inspection and the aggregate views in internal/experiments
// sum it per protocol.
package report

// Histogram is a fixed-bucket histogram: Bounds are ascending upper bucket
// edges, Counts[i] counts samples v <= Bounds[i] (and above Bounds[i-1]),
// and Counts[len(Bounds)] is the overflow bucket. The bucket layout is fixed
// at construction so Observe never allocates.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	N      int64     `json:"n"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// DefaultLatencyBounds bucket generation-completion latencies in seconds.
var DefaultLatencyBounds = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120}

// DefaultQueueBounds bucket broadcast-queue lengths in packets.
var DefaultQueueBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}

// NewHistogram builds an empty histogram over the given ascending bucket
// bounds (copied; the input is not retained).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
}

// Observe records one sample. It performs no allocation.
func (h *Histogram) Observe(v float64) {
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// NodeCounters aggregates one node's session activity. Node is the
// subgraph-local index; in shared (multi-unicast) placement the counters are
// this session's share of the physical node's traffic, except AirtimeSeconds
// and MeanQueue, which describe the physical node on the shared channel.
type NodeCounters struct {
	Node           int     `json:"node"`
	TxFrames       int64   `json:"tx_frames"`
	RxPackets      int64   `json:"rx_packets"`
	Innovative     int64   `json:"innovative"`
	Discarded      int64   `json:"discarded"`
	AirtimeSeconds float64 `json:"airtime_s"`
	MeanQueue      float64 `json:"mean_queue"`
}

// LinkDelivery is one cell of the per-link delivery matrix: how many of the
// session's frames arrived over one subgraph link, counted where the
// receiving port first sees each frame — before it is judged stale, off-path
// or non-innovative — in shared and exclusive placement alike. It is the
// count PathUtility reads. Links with zero deliveries are omitted.
type LinkDelivery struct {
	From      int   `json:"from"`
	To        int   `json:"to"`
	Delivered int64 `json:"delivered"`
}

// RankPoint is one step of the destination's rank progress: the decoder's
// rank right after an innovative reception. The series is the aggregated
// form of the trace's innovative events at the destination.
type RankPoint struct {
	Time       float64 `json:"t"`
	Generation int     `json:"gen"`
	Rank       int     `json:"rank"`
}

// MACStats aggregates the channel-level view of the session's nodes: frames
// and bytes handed to the air, summed air occupancy, and the mean
// token-bucket fill observed at transmission attempts of rate-capped nodes
// (CSMA mode only; the oracle scheduler has no token buckets).
type MACStats struct {
	FramesSent         int64   `json:"frames_sent"`
	BytesSent          int64   `json:"bytes_sent"`
	AirtimeSeconds     float64 `json:"airtime_s"`
	MeanTokenOccupancy float64 `json:"mean_token_occupancy"`
}

// FaultSummary counts the topology epochs a session lived through. Epochs is
// the injector's total; the per-kind counts tally every event the session
// observed (a plan event outside the session's subgraph still re-solves its
// rates, so it counts).
type FaultSummary struct {
	Epochs     int `json:"epochs"`
	Crashes    int `json:"crashes"`
	Recoveries int `json:"recoveries"`
	LinkFlaps  int `json:"link_flaps"`
	Bursts     int `json:"bursts"`
	Drifts     int `json:"drifts,omitempty"`
	Replans    int `json:"replans"`
}

// Report is the structured summary of one emulated session.
type Report struct {
	Protocol           string         `json:"protocol"`
	Seed               int64          `json:"seed"`
	Duration           float64        `json:"duration_s"`
	GenerationsDecoded int            `json:"generations_decoded"`
	Throughput         float64        `json:"throughput_bytes_per_s"`
	Nodes              []NodeCounters `json:"nodes"`
	Links              []LinkDelivery `json:"links,omitempty"`
	MAC                MACStats       `json:"mac"`
	GenerationLatency  *Histogram     `json:"generation_latency,omitempty"`
	QueueLength        *Histogram     `json:"queue_length,omitempty"`
	RankTimeline       []RankPoint    `json:"rank_timeline,omitempty"`
	Faults             FaultSummary   `json:"faults"`
}

// TotalTx sums the per-node transmitted frames.
func (r *Report) TotalTx() int64 { return r.sum(func(n NodeCounters) int64 { return n.TxFrames }) }

// TotalRx sums the per-node received packets.
func (r *Report) TotalRx() int64 { return r.sum(func(n NodeCounters) int64 { return n.RxPackets }) }

// TotalInnovative sums the per-node innovative receptions.
func (r *Report) TotalInnovative() int64 {
	return r.sum(func(n NodeCounters) int64 { return n.Innovative })
}

// TotalDiscarded sums the per-node discarded receptions.
func (r *Report) TotalDiscarded() int64 {
	return r.sum(func(n NodeCounters) int64 { return n.Discarded })
}

func (r *Report) sum(f func(NodeCounters) int64) int64 {
	var total int64
	for _, n := range r.Nodes {
		total += f(n)
	}
	return total
}
