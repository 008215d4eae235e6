package main

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's whole output vocabulary; BENCHMARK.json at
// the repository root lists the same names and units, and a test keeps
// the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the simulator sees, printed by an
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"iter_s_p50", "s"},
	{"iter_s_tail", "s"},
	{"cpu_s_per_iter", "s"},
	{"allocs_per_iter", "count"},
	{"alloc_mb_per_iter", "MB"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer attributes a traced run (--trace 1) to the repository's
// layers. Every workload prints every name; a layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	// internal/mr: the MapReduce runtime.
	{"mr.cpu_share", "ratio"},
	{"mr.alloc_share", "ratio"},
	{"mr.shuffle_cpu_share", "ratio"},
	{"mr.heartbeat_cpu_share", "ratio"},
	{"mr.tasks_per_iter", "count"},
	{"run.build_ms", "ms"},
	{"run.map_ms", "ms"},
	{"run.reduce_ms", "ms"},
	// internal/sim: the event clock.
	{"sim.cpu_share", "ratio"},
	{"sim.virtual_s_per_iter", "s"},
	// internal/netsim: the fluid network fabric.
	{"netsim.cpu_share", "ratio"},
	{"netsim.flows_per_run", "count"},
	// internal/resource and internal/dfs: node and storage models.
	{"resource.cpu_share", "ratio"},
	{"dfs.cpu_share", "ratio"},
	// internal/core: engines and the slot manager.
	{"core.cpu_share", "ratio"},
	{"core.decisions_per_iter", "count"},
	// internal/policy and internal/arrival: multi-tenant capacity.
	{"policy.cpu_share", "ratio"},
	{"policy.decisions_per_iter", "count"},
	{"arrival.cpu_share", "ratio"},
	{"arrival.jobs_per_iter", "count"},
	// internal/fleet: the sharded fleet runner.
	{"fleet.cpu_share", "ratio"},
	{"fleet.cluster_ms_p50", "ms"},
	// Observability sinks: internal/trace, internal/telemetry, mr event log.
	{"trace.cpu_share", "ratio"},
	{"trace.spans_per_run", "count"},
	{"telemetry.cpu_share", "ratio"},
	{"telemetry.ticks_per_run", "count"},
	{"events.records_per_run", "count"},
	// internal/serve and its ledger.
	{"serve.cpu_share", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.sse_events_per_run", "count"},
	{"serve.artifact_kb_per_run", "KiB"},
	{"serve.retained_mb_per_run", "MB"},
	// internal/chaos: fault injection.
	{"chaos.faults_per_run", "count"},
	// Go runtime.
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_iter", "count"},
	{"runtime.sched_latency_p99_ms", "ms"},
	// CPU not attributed to any layer above: the Go runtime's own
	// goroutines, the standard library under the benchmark's client,
	// and repository packages without a row here.
	{"unattributed.cpu_share", "ratio"},
	// The benchmark itself: tracing overhead, output checks, sample size.
	{"bench.untraced_iter_s_p50", "s"},
	{"bench.traced_iter_s_p50", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_ratio", "ratio"},
	{"bench.profile_samples", "count"},
}

// cpuLayers are the layers whose CPU share the profile attribution
// reports, keyed by the first path element under smapreduce/internal/.
var cpuLayers = []string{
	"mr", "sim", "netsim", "resource", "dfs", "core", "policy", "arrival",
	"fleet", "trace", "telemetry", "serve",
}
