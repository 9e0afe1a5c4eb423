package main

// metricDef names one benchmark metric. The tables below are the single
// definition of the benchmark's vocabulary: BENCHMARK.json at the repo root
// must list exactly these names, units, directions and bounds
// (TestManifestMatchesTables), and README.md explains each one.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change is a regression (0 for per-layer
	// metrics, which are never gated).
	Bound float64
	// Floor is the absolute slack -aa adds to Bound, in the metric's unit:
	// a metric whose median is tiny may differ by Floor without failing.
	// BENCHMARK.json cannot express it, so only -aa uses it.
	Floor float64
	// Moves says which end-to-end metric, on which workload, this per-layer
	// metric is expected to move; "-" means it must not move any.
	Moves string
}

// endToEnd is what a user of the simulator waits for or pays: host time per
// unit of simulated work, host memory, and the time before the first useful
// op. The same four names are reported on every workload.
var endToEnd = []metricDef{
	{Name: "throughput", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB/op", Better: "lower", Bound: 0.10, Floor: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Floor: 2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
}

const (
	onMesh   = "throughput on mesh8_dense, mesh32_sparse_faulted"
	onDense  = "throughput on mesh8_dense"
	onSparse = "throughput on mesh32_sparse_faulted"
	onInfer  = "throughput on apu_infer"
	onTrain  = "throughput on apu_train"
	onSimd   = "throughput on simd_cached"
	noMove   = "-"
)

// perLayer is printed by the traced run. A workload reports 0 for a layer
// that is not on its path.
var perLayer = []metricDef{
	{Name: "traffic.tick_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onMesh},
	{Name: "noc.step_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onMesh + "; <5% of apu_train"},
	{Name: "noc.self_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onMesh},
	{Name: "noc.host_ns_per_delivered", Unit: "ns", Better: "lower", Moves: onMesh},
	{Name: "noc.alloc_bytes_per_cycle", Unit: "B", Better: "lower", Moves: "alloc_kb_per_op on mesh workloads"},
	{Name: "noc.active_routers_mean", Unit: "count", Better: "lower", Moves: "explains mesh32_sparse_faulted only"},
	{Name: "noc.delivered_per_cycle", Unit: "1/cycle", Better: "higher", Moves: noMove},
	{Name: "noc.inflight_mean", Unit: "count", Better: "lower", Moves: noMove},
	{Name: "noc.latency_mean_cycles", Unit: "cycles", Better: "lower", Moves: noMove},
	{Name: "noc.pending_injections_end", Unit: "count", Better: "lower", Moves: noMove},
	{Name: "arb.select_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onDense},
	{Name: "arb.select_calls_per_cycle", Unit: "1/cycle", Better: "lower", Moves: onDense},
	{Name: "arb.cands_per_call", Unit: "count", Better: "lower", Moves: onDense},
	{Name: "fault.route_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onSparse},
	{Name: "fault.route_calls_per_cycle", Unit: "1/cycle", Better: "lower", Moves: onSparse},
	{Name: "fault.route_calls_per_delivered", Unit: "ratio", Better: "lower", Moves: onSparse},
	{Name: "obs.attach_overhead_pct", Unit: "%", Better: "lower", Moves: noMove},
	{Name: "trace.attach_overhead_pct", Unit: "%", Better: "lower", Moves: noMove},
	{Name: "apu.step_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onInfer},
	{Name: "apu.nonagent_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onInfer},
	{Name: "apu.sim_cycles_per_episode", Unit: "cycles", Better: "lower", Moves: noMove},
	{Name: "apu.noc_latency_mean_cycles", Unit: "cycles", Better: "lower", Moves: noMove},
	{Name: "core.select_ns_per_decision", Unit: "ns", Better: "lower", Moves: onInfer + " (most), apu_train (little)"},
	{Name: "core.decisions_per_cycle", Unit: "1/cycle", Better: "lower", Moves: onInfer},
	{Name: "core.build_state_ns", Unit: "ns", Better: "lower", Moves: onInfer},
	{Name: "core.oncycle_ns_per_cycle", Unit: "ns", Better: "lower", Moves: onTrain},
	{Name: "nn.forward_ns", Unit: "ns", Better: "lower", Moves: onInfer},
	{Name: "nn.quant_forward_ns", Unit: "ns", Better: "lower", Moves: onInfer},
	{Name: "nn.forward_batch32_us", Unit: "us", Better: "lower", Moves: onTrain},
	{Name: "nn.train_action_ns", Unit: "ns", Better: "lower", Moves: onTrain},
	{Name: "rl.train_batch_us", Unit: "us", Better: "lower", Moves: onTrain},
	{Name: "rl.replay_sample_ns", Unit: "ns", Better: "lower", Moves: onTrain},
	{Name: "rl.steps_per_cycle", Unit: "1/cycle", Better: "lower", Moves: onTrain},
	{Name: "rl.replay_fill", Unit: "ratio", Better: "higher", Moves: "setup_s, peak_rss_mb on apu_train"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: onSimd},
	{Name: "serve.submit_ms_p95", Unit: "ms", Better: "lower", Moves: onSimd},
	{Name: "serve.result_ms_p50", Unit: "ms", Better: "lower", Moves: onSimd},
	{Name: "serve.result_ms_p95", Unit: "ms", Better: "lower", Moves: onSimd},
	{Name: "serve.spec_parse_us", Unit: "us", Better: "lower", Moves: onSimd},
	{Name: "serve.spec_hash_us", Unit: "us", Better: "lower", Moves: onSimd},
	{Name: "serve.bytes_per_result", Unit: "B", Better: "lower", Moves: onSimd},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: onSimd + " (must be 1)"},
	{Name: "serve.cold_job_ms_p50", Unit: "ms", Better: "lower", Moves: "setup_s on simd_cached"},
	{Name: "serve.cold_direct_ms_p50", Unit: "ms", Better: "lower", Moves: "setup_s on simd_cached"},
	{Name: "serve.cold_overhead_ms", Unit: "ms", Better: "lower", Moves: "setup_s on simd_cached"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower", Moves: noMove},
	{Name: "telemetry.series_count", Unit: "count", Better: "lower", Moves: noMove},
	{Name: "harness.wall_throughput", Unit: "ops/s", Better: "higher", Moves: noMove},
	{Name: "harness.contention_ratio", Unit: "ratio", Better: "higher", Moves: noMove},
	{Name: "harness.op_p50_ms", Unit: "ms", Better: "lower", Moves: noMove},
	{Name: "harness.op_p95_ms", Unit: "ms", Better: "lower", Moves: noMove},
	{Name: "harness.windows", Unit: "count", Better: "higher", Moves: noMove},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower", Moves: noMove},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower", Moves: noMove},
	{Name: "harness.steal_pct", Unit: "%", Better: "lower", Moves: noMove},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower", Moves: noMove},
}

// simulated lists the per-layer metrics that are counts made by the
// deterministic simulator: for one seed they must repeat exactly, and -aa
// fails when they do not.
var simulated = []string{
	"noc.delivered_per_cycle", "noc.inflight_mean", "noc.latency_mean_cycles",
	"noc.pending_injections_end", "noc.active_routers_mean",
	"arb.select_calls_per_cycle", "arb.cands_per_call",
	"fault.route_calls_per_cycle", "fault.route_calls_per_delivered",
	"apu.sim_cycles_per_episode", "apu.noc_latency_mean_cycles",
	"core.decisions_per_cycle", "rl.steps_per_cycle", "rl.replay_fill",
	"serve.bytes_per_result", "serve.cache_hit_ratio",
}
