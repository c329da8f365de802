package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. Bound is the relative
// worsening of the median that counts as a regression; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the server feels. Every workload reports
// every one of them (the driver compares each workload × metric pair), so
// the per-verb names of the issue are folded into the workload's primary
// operation: a query on query_cold and query_repeat, one source integrated
// on ingest_messy, one integrate → query → feedback iteration on
// loop_replicated. The per-verb breakdown is in the per-layer list under
// http.*.
//
// The bounds are what the reference sandbox allows, not what one would
// like. The driver measures each workload with ten different seeds and
// refuses a benchmark whose quartile distance exceeds the bound, so a bound
// covers the variance between corpora and that of the box: over ten seeds
// the times spread by 2 to 12 % of their median in a quiet phase of the
// host and by up to 23 % in a slow one, and 0.25 is the most the driver
// allows. The byte ratio does not depend on timing and repeats exactly for
// one seed; it differs by 1 to 2 % between corpora. See README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"wal_bytes_per_source_byte", "ratio", "lower", 0.06},
}

// perLayer lists the metrics of single layers (this repository's
// packages). Counters are read from the running child over HTTP and /proc;
// timings come from the traced in-process replay. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	// What the client saw per verb (the issue's per-verb end-to-end names).
	{"http.query_ops_s", "1/s", "higher", 0},
	{"http.query_p50_ms", "ms", "lower", 0},
	{"http.query_p99_ms", "ms", "lower", 0},
	{"http.integrate_ops_s", "1/s", "higher", 0},
	{"http.integrate_p50_ms", "ms", "lower", 0},
	{"http.feedback_p50_ms", "ms", "lower", 0},
	{"http.error_rate", "share", "lower", 0},

	{"server.query.handler_ms_p50", "ms", "lower", 0},
	{"server.integrate.handler_ms_p50", "ms", "lower", 0},
	{"server.http_overhead_ms_p50", "ms", "lower", 0},
	{"server.query.json_encode_us_p50", "us", "lower", 0},
	{"server.query.resp_bytes_p50", "bytes", "lower", 0},
	{"server.integrate.p99_ms", "ms", "lower", 0},
	{"server.feedback.p99_ms", "ms", "lower", 0},
	{"server.loop_query.p99_ms", "ms", "lower", 0},
	{"server.read_share", "share", "lower", 0},
	{"server.write_share", "share", "lower", 0},

	{"core.query.self_us_p50", "us", "lower", 0},
	{"core.integrate.self_ms_p50", "ms", "lower", 0},
	{"core.result_cache.hit_rate", "share", "higher", 0},
	{"core.query_cache.hit_rate", "share", "higher", 0},
	{"core.memo.hit_rate", "share", "higher", 0},
	{"core.read_share", "share", "lower", 0},
	{"core.write_share", "share", "lower", 0},

	{"query.compile_us_p50", "us", "lower", 0},
	{"query.eval_ms_p50", "ms", "lower", 0},
	{"query.eval_ms_p99", "ms", "lower", 0},
	{"query.plan.exact_share", "share", "higher", 0},
	{"query.visits_per_answer", "count", "lower", 0},
	{"query.eval_w1_ms_p50", "ms", "lower", 0},
	{"query.eval_wN_ms_p50", "ms", "lower", 0},
	{"query.parallel_speedup", "ratio", "higher", 0},
	{"query.pooled_task_share", "share", "higher", 0},
	{"query.read_share", "share", "lower", 0},

	{"queryindex.build_ms_p50", "ms", "lower", 0},
	{"queryindex.write_share", "share", "lower", 0},
	{"queryindex.pruned_visit_share", "share", "higher", 0},

	{"integrate.merge_ms_p50", "ms", "lower", 0},
	{"integrate.oracle_calls_per_source", "count", "lower", 0},
	{"integrate.undecided_per_source", "count", "lower", 0},
	{"integrate.matchings_enumerated_per_source", "count", "lower", 0},
	{"integrate.matchings_pruned_share", "share", "higher", 0},
	{"integrate.truncated_components", "count", "lower", 0},
	{"integrate.spliced_share", "share", "higher", 0},
	{"integrate.write_share", "share", "lower", 0},

	{"oracle.decide_us_p50", "us", "lower", 0},
	{"oracle.busy_share", "share", "lower", 0},
	{"oracle.write_share", "share", "lower", 0},

	{"xmlcodec.decode_ms_p50", "ms", "lower", 0},
	{"xmlcodec.decode_mb_s", "MB/s", "higher", 0},
	{"xmlcodec.write_share", "share", "lower", 0},

	{"feedback.apply_ms_p50", "ms", "lower", 0},
	{"feedback.log10_worlds_removed_per_event", "log10", "higher", 0},
	{"feedback.contradiction_share", "share", "lower", 0},

	{"catalog.journal_ms_p50", "ms", "lower", 0},
	{"catalog.wal_record_encode_us_p50", "us", "lower", 0},
	{"catalog.wal_bytes_per_op", "bytes", "lower", 0},
	{"catalog.compactions", "count", "lower", 0},
	{"catalog.compact_ms_p50", "ms", "lower", 0},
	{"catalog.restart_s", "s", "lower", 0},
	{"catalog.recovered_ops", "count", "lower", 0},
	{"catalog.recover_ms_per_op", "ms", "lower", 0},
	{"catalog.write_share", "share", "lower", 0},

	{"store.save_ms_p50", "ms", "lower", 0},
	{"store.load_ms_p50", "ms", "lower", 0},
	{"store.snapshot_bytes_per_node", "bytes", "lower", 0},
	{"store.mmap_loads", "count", "higher", 0},

	{"replica.lag_ms_p50", "ms", "lower", 0},
	{"replica.apply_ms_p50", "ms", "lower", 0},
	{"replica.page_encode_us_p50", "us", "lower", 0},
	{"replica.page_decode_us_p50", "us", "lower", 0},
	{"replica.wire_bytes_per_op", "bytes", "lower", 0},
	{"replica.wire_compression_ratio", "ratio", "higher", 0},
	{"replica.lag_ops_max", "count", "lower", 0},
	{"replica.divergences", "count", "lower", 0},
	{"replica.snapshots_installed", "count", "lower", 0},

	{"pxml.append_binary_us_p50", "us", "lower", 0},
	{"pxml.decode_arena_us_p50", "us", "lower", 0},
	{"pxml.normalize_ms_p50", "ms", "lower", 0},
	{"pxml.nodes_final", "count", "lower", 0},
	{"pxml.choice_points_final", "count", "lower", 0},
	{"codec.strtab_entries", "count", "lower", 0},

	{"proc.rss_mb_peak", "MB", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.steal_share", "share", "lower", 0},
	{"proc.laps", "count", "higher", 0},
	{"proc.host_slowdown", "ratio", "lower", 0},
	{"trace.unattributed_share", "share", "lower", 0},
}

// samples collects one timing series in milliseconds.
type samples []float64

func (s *samples) add(ms float64) { *s = append(*s, ms) }

// percentile returns the nearest-rank p-th percentile (p in [0,100]) of an
// unsorted series, 0 for an empty one.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func median(s []float64) float64 { return percentile(s, 50) }

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
