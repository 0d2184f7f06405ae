package main

// layerMetric is one per-layer metric of the traced run, tagged with
// the end-to-end metric and workload it should move (and where it
// should not). A layer that does not run on a workload reports 0 there.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"graph.gen_s", "s", "lower", "setup_s on all three (graph.Builder from the edge list; ~3%)"},
	{"metric.apsp_s", "s", "lower", "setup_s on tcp-zipf (most of it); 0 on lazy-uniform and http-restore"},
	{"metric.setup_calls", "count", "lower", "setup_s on lazy-uniform; 0 on http-restore (no construction)"},
	{"metric.setup_s", "s", "lower", "setup_s on lazy-uniform; 0 on http-restore. Summed over threads, sampled 1 call in 64"},
	{"metric.cached_entries_setup", "count", "lower", "explains lazy-uniform setup_s (LRU after the build); 0 on dense"},
	{"metric.cached_entries_serve", "count", "lower", "explains lazy-uniform qps (LRU after serving); 0 on dense"},
	{"metric.dist_us", "us", "lower", "qps, p50_us, cpu_us_per_query on lazy-uniform; not tcp-zipf (a dense read)"},
	{"rnet.build_s", "s", "lower", "setup_s on tcp-zipf and lazy-uniform; not http-restore (replayed there only)"},
	{"labeled.build_s", "s", "lower", "setup_s on tcp-zipf and lazy-uniform; not http-restore (replayed there only)"},
	{"nameind.build_s", "s", "lower", "setup_s on tcp-zipf; not http-restore (replayed there only); 0 on lazy-uniform"},
	{"snapshot.bytes", "bytes", "lower", "setup_s on http-restore only; 0 elsewhere"},
	{"snapshot.load_s", "s", "lower", "setup_s on http-restore only; 0 elsewhere"},
	{"server.restore_s", "s", "lower", "setup_s on http-restore only; 0 elsewhere"},
	{"setup.alloc_mb", "MB", "lower", "setup_s and peak_rss_mb on all three"},
	{"setup.gc_cycles", "count", "lower", "setup_s and peak_rss_mb on all three"},
	{"frame.decode_us", "us", "lower", "p50_us and qps on tcp-zipf; diluted on lazy-uniform. Per frame, both ends"},
	{"frame.encode_us", "us", "lower", "p50_us and qps on tcp-zipf; diluted on lazy-uniform. Per frame, both ends"},
	{"frame.bytes_per_query", "bytes", "lower", "p50_us and qps on tcp-zipf; request plus response frame bytes per pair"},
	{"server.lite_us", "us", "lower", "qps and cpu_us_per_query on tcp-zipf; not lazy-uniform (all misses by input)"},
	{"server.lite_hit_us", "us", "lower", "qps and cpu_us_per_query on tcp-zipf"},
	{"server.lite_miss_us", "us", "lower", "qps and cpu_us_per_query on tcp-zipf; on lazy-uniform it is metric.dist_us plus the walk"},
	{"server.hit_ratio", "ratio", "higher", "qps and cpu_us_per_query on tcp-zipf; ~0 on lazy-uniform by input. Over the serving window"},
	{"server.hit_base", "count", "higher", "the queries server.hit_ratio is taken over"},
	{"sim.walk_us", "us", "lower", "qps on tcp-zipf (the miss path's walk)"},
	{"sim.hops_per_query", "count", "lower", "qps on tcp-zipf"},
	{"server.route_us", "us", "lower", "qps, p90_us, cpu_us_per_query on http-restore; not the TCP workloads"},
	{"server.http_us", "us", "lower", "qps, p90_us, cpu_us_per_query on http-restore; not the TCP workloads"},
	{"server.allocs_per_query", "count", "lower", "http-restore (ServeHTTP); the TCP workloads measure RouteLite, pinned at 0 on dense"},
	{"server.alloc_bytes_per_query", "bytes", "lower", "http-restore (ServeHTTP); the TCP workloads measure RouteLite"},
	{"server.frame_mean_us", "us", "lower", "p50_us on both TCP workloads: server-side service time per frame; 0 on http-restore"},
	{"net.gap_us", "us", "lower", "p50_us on both TCP workloads: client mean per frame minus server.frame_mean_us (loopback, queueing)"},
	{"trace.qps_untraced", "1/s", "higher", "tracing overhead: median qps of the untraced one-second slices of the traced run"},
	{"trace.qps_traced", "1/s", "higher", "tracing overhead: median qps of the interleaved slices with client spans on"},
	{"trace.overhead_pct", "%", "lower", "tracing overhead: 100 x (1 - traced/untraced qps); negative is noise"},
	{"trace.spans", "count", "higher", "spans recorded and checked (children inside parents, self time >= 0)"},
}

func layerTags() map[string]string {
	m := make(map[string]string, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l.name] = l.moves
	}
	return m
}
