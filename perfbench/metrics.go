package main

// metricDef is one printed metric: its name, unit and which direction
// is better. BENCHMARK.json lists the same metrics, and the self-tests
// check that it does.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a timed run (--trace 0) prints. Simulator
// metrics are wall-clock or allocation based; modelled metrics repeat
// exactly for a given seed.
var endToEnd = []metricDef{
	{"replicas_per_s", "1/s", "higher"},      // simulator: replica writes landed per wall-second of the window
	{"setup_s", "s", "lower"},                // simulator: NewSim + deploy, median of the run's set-ups
	{"allocs_per_replica", "count", "lower"}, // simulator: heap allocations per replica write in the window
	{"live_heap_mb", "MB", "lower"},          // simulator: HeapAlloc after the drain and a forced GC
	{"delay_p50_s", "s", "lower"},            // modelled: source PUT -> replica landed, virtual seconds
	{"delay_p99_s", "s", "lower"},            // modelled
	{"cost_usd_per_gb", "USD/GB", "lower"},   // modelled: metered dollars per GiB of replica writes
	{"kv_ops_per_replica", "count", "lower"}, // modelled: KV reads+writes per replica write
}

// perLayer are the metrics a traced run (--trace 1) prints, grouped by
// the repository module they describe. Their direction says which way
// is less work or less waste; they carry no bound. Counts and
// virtual-time sums are totals over the run's seeded batches; *_ns and
// *_allocs are primitive probes; *.cpu_share come from a CPU profile of
// the traced batches and sum to 1.
var perLayer = []metricDef{
	{"simclock.sleeps", "count", "lower"},
	{"simclock.spawned", "count", "lower"},
	{"simclock.advances", "count", "lower"},
	{"simclock.turns_per_replica", "count", "lower"},
	{"simclock.cpu_share", "fraction", "lower"},
	{"simclock.sleep_ns", "ns", "lower"},
	{"simclock.sleep_allocs", "count", "lower"},
	{"simclock.gocall_ns", "ns", "lower"},
	{"simclock.gocall_allocs", "count", "lower"},

	{"runtime.gc_cpu_share", "fraction", "lower"},
	{"runtime.other_cpu_share", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},

	{"fleet.admits", "count", "higher"},
	{"fleet.defers", "count", "lower"},
	{"fleet.batches", "count", "lower"},
	{"fleet.batch_mean_size", "count", "higher"},
	{"fleet.quota_waits", "count", "lower"},
	{"fleet.forced", "count", "lower"},
	{"fleet.starved", "count", "lower"},
	{"fleet.cpu_share", "fraction", "lower"},
	{"fleetobs.cpu_share", "fraction", "lower"},

	{"engine.tasks_ok", "count", "higher"},
	{"engine.tasks_failed", "count", "lower"},
	{"engine.retries", "count", "lower"},
	{"engine.parts_hedged", "count", "lower"},
	{"engine.events_deduped", "count", "lower"},
	{"engine.dlq_redriven", "count", "lower"},
	{"engine.backlog_max", "count", "lower"},
	{"engine.cpu_share", "fraction", "lower"},
	{"engine.critpath.notify", "fraction", "lower"},
	{"engine.critpath.invoke", "fraction", "lower"},
	{"engine.critpath.queued", "fraction", "lower"},
	{"engine.critpath.startup", "fraction", "lower"},
	{"engine.critpath.postpone", "fraction", "lower"},
	{"engine.critpath.setup", "fraction", "lower"},
	{"engine.critpath.transfer", "fraction", "lower"},
	{"engine.critpath.stall", "fraction", "lower"},
	{"engine.critpath.objstore", "fraction", "lower"},
	{"engine.critpath.kv", "fraction", "lower"},
	{"engine.critpath.changelog", "fraction", "lower"},
	{"engine.critpath.backoff", "fraction", "lower"},
	{"engine.critpath.hedge", "fraction", "lower"},
	{"engine.critpath.scrub", "fraction", "lower"},
	{"engine.critpath.idle", "fraction", "lower"},
	{"core.cpu_share", "fraction", "lower"},
	{"world.cpu_share", "fraction", "lower"},

	{"planner.cpu_share", "fraction", "lower"},
	{"model.cpu_share", "fraction", "lower"},
	{"stats.cpu_share", "fraction", "lower"},
	{"planner.plan_hit_ns", "ns", "lower"},
	{"planner.plan_hit_allocs", "count", "lower"},
	{"planner.plan_miss_ns", "ns", "lower"},
	{"planner.plan_miss_allocs", "count", "lower"},

	{"faas.invocations", "count", "lower"},
	{"faas.cold_starts", "count", "lower"},
	{"faas.warm_ratio", "fraction", "higher"},
	{"faas.crashes", "count", "lower"},
	{"faas.startup_s", "s", "lower"},
	{"faas.postpone_s", "s", "lower"},
	{"faas.cpu_share", "fraction", "lower"},
	{"faas.invoke_ns", "ns", "lower"},
	{"faas.invoke_allocs", "count", "lower"},

	{"kvstore.reads", "count", "lower"},
	{"kvstore.writes", "count", "lower"},
	{"kvstore.throttled", "count", "lower"},
	{"kvstore.cpu_share", "fraction", "lower"},
	{"kvstore.update_small_ns", "ns", "lower"},
	{"kvstore.update_small_allocs", "count", "lower"},
	{"kvstore.update_pool_ns", "ns", "lower"},
	{"kvstore.update_pool_allocs", "count", "lower"},
	{"kvstore.increment_ns", "ns", "lower"},
	{"kvstore.increment_allocs", "count", "lower"},

	{"objstore.puts", "count", "lower"},
	{"objstore.gets", "count", "lower"},
	{"objstore.failures", "count", "lower"},
	{"objstore.notify_p99_s", "s", "lower"},
	{"objstore.cpu_share", "fraction", "lower"},
	{"objstore.put_ns", "ns", "lower"},
	{"objstore.put_allocs", "count", "lower"},
	{"objstore.head_ns", "ns", "lower"},
	{"objstore.head_allocs", "count", "lower"},

	{"netsim.bytes", "B", "lower"},
	{"netsim.legs", "count", "lower"},
	{"netsim.leg_p99_s", "s", "lower"},
	{"netsim.partition_stall_s", "s", "lower"},
	{"netsim.cpu_share", "fraction", "lower"},

	{"antientropy.rounds", "count", "lower"},
	{"antientropy.digest_bytes", "B", "lower"},
	{"antientropy.divergent_keys", "count", "lower"},
	{"antientropy.repairs_dispatched", "count", "lower"},
	{"antientropy.repair_yield", "fraction", "higher"},
	{"antientropy.divergence_age_p99_s", "s", "lower"},
	{"antientropy.cpu_share", "fraction", "lower"},

	{"telemetry.spans_started", "count", "lower"},
	{"telemetry.spans_retained", "count", "lower"},
	{"telemetry.retained_ratio", "fraction", "lower"},
	{"telemetry.cpu_share", "fraction", "lower"},
	{"telemetry.counter_add_ns", "ns", "lower"},
	{"telemetry.counter_add_allocs", "count", "lower"},
	{"telemetry.observe_ns", "ns", "lower"},
	{"telemetry.observe_allocs", "count", "lower"},
	{"telemetry.span_on_ns", "ns", "lower"},
	{"telemetry.span_on_allocs", "count", "lower"},
	{"telemetry.span_off_ns", "ns", "lower"},
	{"telemetry.span_off_allocs", "count", "lower"},

	{"chaos.cpu_share", "fraction", "lower"},
	{"pricing.cpu_share", "fraction", "lower"},
	{"simrand.cpu_share", "fraction", "lower"},
	{"other.cpu_share", "fraction", "lower"},
	{"facade.cpu_share", "fraction", "lower"},
	{"bench.cpu_share", "fraction", "lower"},

	{"bench.setup_s", "s", "lower"},
	{"bench.replay_s", "s", "lower"},
	{"bench.drain_s", "s", "lower"},
	{"bench.scrub_s", "s", "lower"},
	{"bench.audit_s", "s", "lower"},
	{"bench.gen_lag_max_s", "s", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.delay_samples", "count", "higher"},
	{"bench.delay_p999_s", "s", "lower"},
	{"bench.error_rate", "fraction", "lower"},
}
