package main

// metricDef names one reported metric. bound is the share of the earlier
// value by which a later one may be worse before the A/A mode (and, for the
// metrics in BENCHMARK.json's end_to_end list, the driver) calls it a
// regression; per-layer metrics carry no bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics every workload reports: BENCHMARK.json's
// end_to_end list, in the same order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fixpoint_s", "s", "lower", 0.20},
	{"fixpoint_w1_s", "s", "lower", 0.20},
	{"peak_pool_mb", "MB", "lower", 0.10},
	{"heap_alloc_mb", "MB", "lower", 0.08},
}

// updateMetrics are the user-visible update latencies of the resident
// workload. Only incr_tc can measure them (a single-arc delete costs 3 to
// 56 s on the batch workloads' inputs), and BENCHMARK.json requires every
// end_to_end metric from every workload, so they are listed there with the
// per-layer metrics and read 0 on the batch workloads. The A/A mode still
// holds them to these bounds on incr_tc.
var updateMetrics = []metricDef{
	{"update_insert_p50_ms", "ms", "lower", 0.10},
	{"update_insert_p90_ms", "ms", "lower", 0.15},
	{"update_delete_p50_ms", "ms", "lower", 0.10},
}

// userMetrics are all the metrics a user of the system sees: what the text
// report prints as end-to-end and what the A/A mode holds to its bounds.
var userMetrics = append(append([]metricDef(nil), endToEnd...), updateMetrics...)

// perLayer are the metrics of single layers, in report order. Together with
// updateMetrics they are BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"parser.parse_us", "us", "lower", 0},
	{"analysis.analyze_us", "us", "lower", 0},
	{"querygen.gen_us_per_query", "us", "lower", 0},
	{"querygen.sql_bytes", "bytes", "lower", 0},
	{"sql.parse_us_per_query", "us", "lower", 0},
	{"frontend.est_share", "share", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.queries", "count", "lower", 0},
	{"core.step_us_p50", "us", "lower", 0},
	{"core.finish_ms", "ms", "lower", 0},
	{"core.unattributed_share", "share", "lower", 0},
	{"exec.scatter_s", "s", "lower", 0},
	{"exec.build_s", "s", "lower", 0},
	{"exec.probe_s", "s", "lower", 0},
	{"exec.delta_s", "s", "lower", 0},
	{"exec.aggregate_s", "s", "lower", 0},
	{"exec.tmp_tuples", "count", "lower", 0},
	{"exec.delta_tuples", "count", "lower", 0},
	{"exec.dedup_yield", "ratio", "higher", 0},
	{"exec.peak_join_intermediate_rows", "count", "lower", 0},
	{"exec.tuples_scattered", "count", "lower", 0},
	{"exec.build_scatters", "count", "lower", 0},
	{"exec.arms_skipped", "count", "higher", 0},
	{"exec.diff_opsd", "count", "lower", 0},
	{"exec.diff_tpsd", "count", "lower", 0},
	{"exec.join_build_ns_per_tuple", "ns", "lower", 0},
	{"exec.join_probe_ns_per_tuple", "ns", "lower", 0},
	{"exec.deltastep_mtuples_per_s", "Mtuples/s", "higher", 0},
	{"exec.aggregate_mtuples_per_s", "Mtuples/s", "higher", 0},
	{"storage.scatter_mtuples_per_s", "Mtuples/s", "higher", 0},
	{"gscht.insert_mtuples_per_s", "Mtuples/s", "higher", 0},
	{"stats.analyze_us", "us", "lower", 0},
	{"memory.pool_hit_ratio", "ratio", "higher", 0},
	{"memory.spills", "count", "lower", 0},
	{"memory.faults", "count", "lower", 0},
	{"memory.spill_s", "s", "lower", 0},
	{"memory.fault_s", "s", "lower", 0},
	{"memory.budget_overshoot_x", "x", "lower", 0},
	{"incr.load_s", "s", "lower", 0},
	{"incr.resident_peak_mb", "MB", "lower", 0},
	{"incr.rerun_s", "s", "lower", 0},
	{"incr.insert_vs_rerun_x", "x", "lower", 0},
	{"incr.delete_vs_rerun_x", "x", "lower", 0},
	{"incr.overdelete_ratio", "ratio", "lower", 0},
	{"incr.rescued", "count", "lower", 0},
	{"pool.scaleup_x", "x", "higher", 0},
	{"pool.peak_ratio_w1", "x", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
