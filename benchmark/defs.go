package main

// metricDef names one metric. The tables below are the single source the
// runner, -compare, BENCHMARK.json and the README glossary agree on; a test
// holds BENCHMARK.json to them.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end to end only: the share of the baseline median it may worsen by
	// about says what the metric measures and, for a per-layer metric, which
	// end-to-end metric it should move on which workload ("none" = the
	// prediction is no visible movement; claim such a change as a count).
	about string
}

// runSeconds is BENCHMARK.json's run_seconds: the --seconds the operation
// rates in workloads.go were sized for.
const runSeconds = 15

// setupRepeats is how many times a run sets a workload up from scratch;
// setup_s is the median. The daemon's set-up is ten milliseconds of process
// start, so it takes more repeats to steady.
const (
	setupRepeats       = 3
	daemonSetupRepeats = 9
)

// endToEnd are the metrics a user of the system sees. Every one is defined
// on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		about: "workload start to first timed operation: deployment, placement and the warm-up operation; for daemon, child start to /healthz ok plus the warm-up job (compilation excluded); median of 3 set-ups (9 for daemon)"},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.12,
		about: "correct operations completed per host second of the timed window, at the workload's stated operation size"},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.15,
		about: "median operation latency"},
	{name: "cpu_s_per_op", unit: "s", better: "lower", bound: 0.15,
		about: "user+system CPU per operation (rusage; the child's for daemon), so parallelism bought with extra CPU is visible"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10,
		about: "largest resident set (VmRSS) of the measured process over the window, sampled at about 50 operation boundaries (the child for daemon); one workload per process"},
}

// perLayer is the ledger, layer by layer (the repo's modules, bottom up).
var perLayer = []metricDef{
	{name: "host.calib_mbps", unit: "MB/s", better: "higher", about: "table mulAdd over 1 KiB rows, timed before the workload; moves nothing — it sizes the host"},
	{name: "host.calib_drift", unit: "ratio", better: "lower", about: "calibration after / before the workload; a run outside 0.9-1.1 is marked noisy"},
	{name: "host.trace_overhead_ratio", unit: "ratio", better: "lower", about: "traced / untraced host time of the same operations (the untraced reference covers the first quarter of them)"},

	{name: "gf256.muladd_mbps_1k.accel", unit: "MB/s", better: "higher", about: "default (nibble) kernel on 1 KiB rows -> ops_per_s on session-1k; none on multi-contend, plan, daemon"},
	{name: "gf256.muladd_mbps_1k.table", unit: "MB/s", better: "higher", about: "full-table kernel on 1 KiB rows; reference for the default"},
	{name: "gf256.muladd_mbps_1k.bitplane", unit: "MB/s", better: "higher", about: "bit-plane kernel on 1 KiB rows"},
	{name: "gf256.muladd_mbps_1k.naive", unit: "MB/s", better: "higher", about: "log/exp kernel on 1 KiB rows"},
	{name: "gf256.muladd_ns_48b.accel", unit: "ns", better: "lower", about: "default kernel on a 48-byte row (40 coefficients + 8 B), per-call set-up dominates -> ops_per_s on fig2-quick"},
	{name: "gf256.muladd_ns_48b.table", unit: "ns", better: "lower", about: "full-table kernel on a 48-byte row"},

	{name: "gf16.muladd_mbps_1k", unit: "MB/s", better: "higher", about: "GF(2^16) kernel on 1 KiB rows -> ops_per_s on session-1k-gf16 only"},
	{name: "gf16.muladd_ns_80b", unit: "ns", better: "lower", about: "GF(2^16) kernel on an 80-byte coefficient row (per-call scalar tables) -> session-1k-gf16 only"},

	{name: "coding.encode_us.gf8", unit: "us", better: "lower", about: "Encoder.Next per packet, 40 x 1 KiB -> ops_per_s, op_ms_p50, cpu_s_per_op on session-1k; none on multi-contend"},
	{name: "coding.encode_us.gf16", unit: "us", better: "lower", about: "same over GF(2^16) -> session-1k-gf16"},
	{name: "coding.absorb_us.gf8", unit: "us", better: "lower", about: "innovative Recoder.Add, mean over ranks -> session-1k"},
	{name: "coding.absorb_us.gf16", unit: "us", better: "lower", about: "same over GF(2^16) -> session-1k-gf16"},
	{name: "coding.reject_us.gf8", unit: "us", better: "lower", about: "non-innovative Recoder.Add at full rank -> session-1k"},
	{name: "coding.recode_us.gf8", unit: "us", better: "lower", about: "Recoder.Next at full rank -> session-1k; about a third of fig2-quick at 8 B"},
	{name: "coding.recode_us.gf16", unit: "us", better: "lower", about: "same over GF(2^16) -> session-1k-gf16"},
	{name: "coding.recode_batch_us.gf8", unit: "us", better: "lower", about: "per packet of Recoder.AppendBatch(8) at full rank; no workload calls it yet -> none"},
	{name: "coding.decode_gen_ms.gf8", unit: "ms", better: "lower", about: "40 Decoder.Add + Data(), bytes verified -> session-1k"},
	{name: "coding.decode_gen_ms.gf16", unit: "ms", better: "lower", about: "same over GF(2^16) -> session-1k-gf16"},
	{name: "coding.wire_us", unit: "us", better: "lower", about: "AppendData + UnmarshalPacket of one 1 KiB packet; only the loopback testbed serializes -> none"},
	{name: "coding.allocs_per_gen", unit: "count", better: "lower", about: "heap objects per encoded-and-decoded generation, arenas warm -> peak_rss_mb, cpu_s_per_op on session-1k"},
	{name: "coding.innovative_ratio", unit: "ratio", better: "higher", about: "traced window: innovative / received coded packets (useful outcomes over attempts)"},
	{name: "coding.est_share", unit: "ratio", better: "lower", about: "traced window, est: packet counts x isolated unit costs (mean over the ranks of a fill) / window"},

	{name: "sim.engine_events_per_s", unit: "1/s", better: "higher", about: "bare SerialEngine with no-op handlers -> every session workload, slightly"},
	{name: "sim.mac_frames_per_s.subgraph", unit: "1/s", better: "higher", about: "bare forwarding on a median subgraph, backlogged dummy transmitters and null receivers -> ops_per_s on fig2-quick, less on session-1k"},
	{name: "sim.mac_frames_per_s.network", unit: "1/s", better: "higher", about: "bare forwarding on the full network with four sessions' transmitters -> ops_per_s on multi-contend"},
	{name: "sim.frames_tx", unit: "count", better: "lower", about: "traced window: frames handed to the MAC (simulated; repeats exactly for a seed)"},
	{name: "sim.airtime_share", unit: "ratio", better: "higher", about: "traced window: mean share of simulated time a selected node is on the air (simulated)"},
	{name: "sim.host_us_per_frame", unit: "us", better: "lower", about: "traced window: host time / frames sent, all layers"},
	{name: "sim.est_share", unit: "ratio", better: "lower", about: "traced window, est: frames x isolated per-frame cost / window"},
	{name: "sim.parallel_speedup_w2", unit: "ratio", better: "higher", about: "scaled scenario, serial time / EngineWorkers=2 time, results identical; moves no end-to-end metric (every workload runs the serial engine)"},

	{name: "protocol.session_ms_p50.omnc", unit: "ms", better: "lower", about: "traced window: span around omnc.Run(OMNC) -> op_ms_p50 on fig2-quick and the 1 KiB workloads"},
	{name: "protocol.session_ms_p50.more", unit: "ms", better: "lower", about: "traced window, fig2-quick: span around omnc.Run(MORE) -> op_ms_p50 on fig2-quick"},
	{name: "protocol.session_ms_p50.oldmore", unit: "ms", better: "lower", about: "traced window, fig2-quick: span around omnc.Run(OldMORE) -> op_ms_p50 on fig2-quick"},
	{name: "routing.etx_session_ms_p50", unit: "ms", better: "lower", about: "traced window, fig2-quick: span around omnc.Run(ETX) -> op_ms_p50 on fig2-quick"},
	{name: "protocol.allocs_per_session", unit: "count", better: "lower", about: "heap objects of one OMNC session on the strip scenario (the BENCH_6 ceiling of 2000) -> none visible"},
	{name: "protocol.alloc_kb_per_session", unit: "KB", better: "lower", about: "heap bytes of the same session -> peak_rss_mb, barely"},
	{name: "protocol.plan_share", unit: "ratio", better: "lower", about: "traced window: select + rate control spans / OMNC session spans"},
	{name: "protocol.unattributed_share", unit: "ratio", better: "lower", about: "traced window: 1 - coding.est_share - sim.est_share - planning; a large value argues for an in-program phase clock"},

	{name: "topology.generate_ms", unit: "ms", better: "lower", about: "GenerateNetwork(300, 6) -> setup_s on the five in-process workloads"},

	{name: "core.select_ms_p50", unit: "ms", better: "lower", about: "SelectForwarders -> none (about 1 ms of a plan operation, under 1 % of a session)"},
	{name: "core.rate_ms_p50", unit: "ms", better: "lower", about: "OptimizeRates -> none; claim warm-start work on the iteration counts"},
	{name: "core.rate_iters_mean", unit: "count", better: "lower", about: "rate-control iterations (exact for a seed)"},
	{name: "core.rate_us_per_iter", unit: "us", better: "lower", about: "rate-control host time per iteration"},
	{name: "core.replan_ms_p50", unit: "ms", better: "lower", about: "OptimizeRates on Subgraph.Masked with one forwarder down"},
	{name: "core.replan_iters_mean", unit: "count", better: "lower", about: "iterations per replan (exact for a seed)"},
	{name: "core.multi_rate_ms_p50", unit: "ms", better: "lower", about: "OptimizeRatesJointly over 4 sessions -> none on multi-contend (MAC dominates)"},
	{name: "core.gap_ratio_mean", unit: "ratio", better: "higher", about: "rescaled distributed gamma / LP optimum (exact for a seed)"},

	{name: "lp.solve_ms_p50", unit: "ms", better: "lower", about: "SolveOptimalRates -> ops_per_s, op_ms_p50 on plan; no other workload calls it"},
	{name: "lp.solve_ms_p90", unit: "ms", better: "lower", about: "same, 90th percentile (only the plan window has the samples for it; elsewhere the probe's maximum)"},
	{name: "lp.pivots_mean", unit: "count", better: "lower", about: "simplex pivots per solve (exact for a seed)"},
	{name: "lp.us_per_pivot", unit: "us", better: "lower", about: "solve host time per pivot"},
	{name: "lp.allocs_per_solve", unit: "count", better: "lower", about: "heap objects per solve, workspace warm"},
	{name: "lp.invalid", unit: "count", better: "lower", about: "solves failing the output check (negative optimum or rate, distributed gamma above the optimum)"},

	{name: "experiments.workers2_speedup", unit: "ratio", better: "higher", about: "RunComparison over 8 sessions, Workers 1 time / Workers 2 time, results identical; mechanism payoff, moves nothing"},
	{name: "experiments.gain_err", unit: "ratio", better: "lower", about: "traced window, fig2-quick: mean over omnc, more, oldmore of abs(mean gain over ETX - paper's) / paper's (2.45, 1.67, 1.12); simulated, exact for a seed"},

	{name: "jobs.submit_ms_p50", unit: "ms", better: "lower", about: "Queue.Submit, one journal append + fsync -> ops_per_s, op_ms_p50 on daemon; none on the other five"},
	{name: "jobs.claim_ms_p50", unit: "ms", better: "lower", about: "Queue.Claim, one append + fsync -> daemon"},
	{name: "jobs.done_ms_p50", unit: "ms", better: "lower", about: "Queue.Done, one append + fsync -> daemon"},
	{name: "jobs.land_ms_p50", unit: "ms", better: "lower", about: "Store.Land of a fig1 result -> daemon"},
	{name: "jobs.run_ms_p50", unit: "ms", better: "lower", about: "jobs.Run of the fig1 Spec, the operation's compute -> daemon"},
	{name: "jobs.spec_hash_us", unit: "us", better: "lower", about: "Spec.Hash -> daemon, barely"},
	{name: "jobs.journal_bytes_per_job", unit: "B", better: "lower", about: "journal growth per completed job"},
	{name: "jobs.replay_ms_per_1k", unit: "ms", better: "lower", about: "OpenQueue per 1000 journal records (on daemon: over a copy of the window's journal) -> serve.restart_ms"},

	{name: "serve.submit_ms_p50", unit: "ms", better: "lower", about: "traced window, daemon: POST /jobs round trip -> op_ms_p50, ops_per_s on daemon"},
	{name: "serve.claim_wait_ms_p50", unit: "ms", better: "lower", about: "traced window, daemon: StartedAt - SubmittedAt"},
	{name: "serve.run_land_ms_p50", unit: "ms", better: "lower", about: "traced window, daemon: FinishedAt - StartedAt"},
	{name: "serve.notify_ms_p50", unit: "ms", better: "lower", about: "traced window, daemon: FinishedAt to the terminal SSE event seen by the client"},
	{name: "serve.artifact_ms_p50", unit: "ms", better: "lower", about: "traced window, daemon: artifact GET round trip"},
	{name: "serve.healthz_ms_p50.empty", unit: "ms", better: "lower", about: "daemon: /healthz before the window"},
	{name: "serve.healthz_ms_p50.loaded", unit: "ms", better: "lower", about: "daemon: /healthz after the window (it lists the whole queue)"},
	{name: "serve.restart_ms", unit: "ms", better: "lower", about: "daemon: graceful stop, start over the window's journal, /healthz ok"},
	{name: "serve.overhead_ratio", unit: "ratio", better: "lower", about: "daemon: traced op_ms_p50 / jobs.run_ms_p50"},
	{name: "serve.op_ms_p90", unit: "ms", better: "lower", about: "daemon: 90th-percentile operation latency of the traced window; latency should move before throughput does"},
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
