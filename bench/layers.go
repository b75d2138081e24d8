package main

// perLayer lists the per-layer metrics, layer = package name. A traced
// run reports every one; a layer that does no work in a workload (the
// simulator under archive-read, federation under city-serial) reports 0
// there. README.md says which end-to-end metric each should move.
//
// None has a bound. "better" says which way an optimisation would move
// it; for the protocol counts (frames, recordings, migrations) neither
// way is better — a pure speed-up leaves them exactly alone — and
// "lower" only records that less traffic for the same recordings would
// be the gain.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	const lower, higher = "lower", "higher"
	for _, l := range cpuLayers {
		add("ratio", lower, shareMetric(l))
	}
	add("count", lower, "sim.events", "sim.windows", "sim.global_events", "sim.deposits")
	add("ns", lower, "sim.ns_per_event")
	add("ratio", lower, "sim.shard_imbalance", "sim.barrier_wait_share")
	add("count", lower, "radio.tx_frames", "radio.rx_delivered", "radio.drops")
	add("count", higher, "task.recordings")
	add("count", lower, "storage.migrations", "storage.ttl_frames")
	add("B", higher, "flash.stored_bytes")
	add("s", lower, "core.build_s", "core.run_s", "retrieval.tour_s", "retrieval.reassemble_s")
	add("count", lower, "retrieval.tour_events")
	add("count", higher, "retrieval.tour_chunks")

	add("s", lower, "archive.encode_frames_s", "archive.compact_s", "archive.reopen_s")
	add("count", higher, "archive.ingest_added")
	add("count", lower, "archive.ingest_duplicates", "archive.ingest_superseded",
		"archive.group_commits", "archive.checkpoint_writes", "archive.cache_evictions")
	add("count", higher, "archive.flight_joins")
	add("ratio", higher, "archive.group_batch_mean", "archive.cache_hit_ratio")
	add("MB", higher, "archive.compact_reclaimed_mb")
	add("MB", lower, "archive.segment_mb", "archive.superseded_mb")
	add("MB/s", higher, "archive.ingest_mb_s")
	add("us", lower, "archive.file_cold_us", "archive.file_warm_us", "archive.query_us", "archive.gaps_us",
		"trace.stitch_us", "wav.encode_us", "json.encode_us")

	add("ms", lower, "http.wav.server_p50_ms", "http.query.server_p50_ms", "http.gaps.server_p50_ms",
		"http.file.server_p50_ms", "http.ingest.server_p50_ms", "http.overhead_ms")
	add("MB", lower, "http.response_mb")

	add("s", lower, "federation.converge_s")
	add("count", lower, "federation.repl_pulls", "federation.fanouts", "federation.peer_errors", "federation.partial")
	add("ms", lower, "federation.fanout_p50_ms")
	add("ratio", higher, "federation.local_share")

	add("MB", lower, "go.alloc_mb")
	add("count", lower, "go.mallocs", "go.gc_cycles")

	add("ms", lower, "loadgen.lag_p50_ms", "loadgen.lag_p99_ms", "loadgen.closed_p50_ms", "loadgen.closed_p99_ms",
		"loadgen.open_p99_ms", "loadgen.open_p999_ms")
	add("1/s", higher, "loadgen.achieved_rps", "loadgen.knee_rps")
	add("s", lower, "loadgen.cpu_s")

	add("ratio", lower, "bench.trace_overhead")
	add("ratio", higher, "bench.cpu_share_sum", "bench.span_coverage")
	return defs
}
