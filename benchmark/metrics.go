package main

// metricDef names one reported number. BENCHMARK.json at the repo root
// lists the same names, units and bounds; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the other run's value it may differ by; 0: none
}

// endToEnd are the gated metrics: what a run must not make worse by
// more than bound. They are the ones this box can hold to a bound: the
// driver refuses a benchmark whose ten-seed quartile spread exceeds a
// metric's bound, and the host's minutes-long slow spells put that
// spread at 45-80 % for every timing whenever one overlaps three runs
// (README, "Why the timings are unresolved").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.15},
	{"disk_bytes_per_element", "B", "lower", 0.02},
}

func gated(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// clientSide is what a client of flatserve waits for, measured with
// the ladder off, over the whole timed phase. Every workload reports
// every one: latencies are of the workload's range or count queries (on
// mixed_rw, the SN range queries that run beside the writer). They are
// UNRESOLVED on this box, not unchanged: listed with the per-layer
// metrics, which carry no bound, and compared by the ten-pair rule.
// bound is what two runs in a quiet spell agree within; -selfcheck
// prints it, nothing enforces it.
var clientSide = []metricDef{
	{"qps", "1/s", "higher", 0.10},
	{"p50_us", "us", "lower", 0.10},
	{"p99_us", "us", "lower", 0.15},
	{"ttfr_p50_us", "us", "lower", 0.10},
	{"server_cpu_us_per_op", "us", "lower", 0.10},
}

// mixedOnly are printed for mixed_rw and written to -out, but are not
// in BENCHMARK.json: its contract wants every listed metric from every
// workload, and these exist only where there are writes and NN queries.
var mixedOnly = []metricDef{
	{"nn_p50_us", "us", "lower", 0.10},
	{"nn_p99_us", "us", "lower", 0.15},
	{"write_p50_us", "us", "lower", 0.10},
	{"write_p99_us", "us", "lower", 0.20},
	{"rebuild_s", "s", "lower", 0.10},
	{"bench.writer_late_p99_us", "us", "lower", 0},
}

// health is printed beside the client-side metrics: a client using most
// of the CPU, or a server refusing queries, means the run measured the
// generator.
var health = []metricDef{
	{"bench.client_cpu_share", "%", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
}

// perLayer is the traced run: the client-side timings of its short
// end-to-end phase, the ladder's self times and counts, the leaf probes,
// and the harness's own health. No bounds.
var perLayer = append(append([]metricDef(nil), clientSide...), []metricDef{
	{"serve.self_us_per_op", "us", "lower", 0},
	{"serve.self_ns_per_result", "ns", "lower", 0},
	{"serve.allocs_per_op", "count", "lower", 0},
	{"serve.alloc_bytes_per_op", "B", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.cancelled", "count", "lower", 0},
	{"serve.pages_read_per_op", "count", "lower", 0},
	{"flat.self_us_per_op", "us", "lower", 0},
	{"flat.allocs_per_op", "count", "lower", 0},
	{"shard.self_us_per_op", "us", "lower", 0},
	{"shard.allocs_per_op", "count", "lower", 0},
	{"shard.shards_opened_per_op", "count", "lower", 0},
	{"shard.nn_us_per_op", "us", "lower", 0},
	{"shard.stage_us_per_write", "us", "lower", 0},
	{"shard.delta_staged", "count", "lower", 0},
	{"shard.open_ms", "ms", "lower", 0},
	{"shard.open_replay_ms", "ms", "lower", 0},
	{"core.self_us_per_op", "us", "lower", 0},
	{"core.allocs_per_op", "count", "lower", 0},
	{"core.pages_touched_per_op", "count", "lower", 0},
	{"core.object_pages_per_op", "count", "lower", 0},
	{"core.records_visited_per_op", "count", "lower", 0},
	{"core.cold_reads_per_op", "count", "lower", 0},
	{"core.elements_examined_per_result", "count", "lower", 0},
	{"storage.pool_us_per_op", "us", "lower", 0},
	{"storage.pool_hit_ns", "ns", "lower", 0},
	{"storage.pool_miss_mmap_ns", "ns", "lower", 0},
	{"storage.pool_miss_file_ns", "ns", "lower", 0},
	{"storage.codec_us_per_op", "us", "lower", 0},
	{"storage.codec_v2_ns_per_element", "ns", "lower", 0},
	{"storage.codec_v1_ns_per_element", "ns", "lower", 0},
	{"storage.wal_append_us", "us", "lower", 0},
	{"storage.wal_sync_us", "us", "lower", 0},
	{"storage.wal_bytes_per_write", "B", "lower", 0},
	{"rtree.delta_insert_us", "us", "lower", 0},
	{"rtree.delta_probe_us", "us", "lower", 0},
	{"rtree.delta_nn_us", "us", "lower", 0},
	{"bench.client_cpu_share", "%", "lower", 0},
	{"bench.trace_vs_e2e_ratio", "ratio", "lower", 0},
}...)

// workload is one traffic mix. The names are fixed: later issues cite
// them.
type workload struct {
	name string
	why  string
	kind opKind // the timed closed-loop range/count kind
	lss  bool   // LSS boxes (SN otherwise)
	// mixed adds the NN half of connection A's alternation and the
	// open-loop writer on connection B, over a pre-staged delta.
	mixed bool
	// ladderRate is the workload's nominal single-goroutine serve-rung
	// rate on the reference box, in ops/s. It only sizes the ladder's T.
	ladderRate float64
}

var workloads = []workload{
	{name: "sn_point", kind: opRange, ladderRate: 5000,
		why: "~13-result SN boxes: fixed per-query cost (framing, admission, prune, seed walk) dominates, so per-element work predicts no change"},
	{name: "lss_stream", kind: opRange, lss: true, ladderRate: 600,
		why: "~2.8k-result LSS boxes streamed to the client: per-element filter, encode, socket write and client decode dominate"},
	{name: "lss_count", kind: opCount, lss: true, ladderRate: 1500,
		why: "the same LSS crawl answered in one frame: moves with filter and codec changes, not with wire changes"},
	{name: "mixed_rw", kind: opRange, mixed: true, ladderRate: 2500,
		why: "SN range and k-NN reads beside 200 fsynced writes/s over a staged delta: overlay probe, delete filter, WAL and delta tree"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
