package main

// This file is the benchmark's metric catalogue: every name the driver
// prints, with its unit, direction, regression bound and — for per-layer
// metrics — the end-to-end metric and workload it is expected to move.
// BENCHMARK.json carries the subset of these fields its schema allows;
// TestBenchmarkJSONMatchesCatalogue keeps the two in step.

// e2eMetric is one end-to-end metric. bound is the share of the parent's
// median by which the metric may worsen before a change is rejected. The
// bounds started from the issue's (10% for qps, p50 and CPU; 15% for p90
// and RSS; 25% for set-up). On the shared host the acceptance
// check runs on, ten runs of one commit spread by a quarter to a third of
// their median on every timing, so every timing sits at the 25% cap; only
// the size metric is tighter. README.md has the measured spreads.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// The driver's contract wants every end-to-end metric on every workload
// and never 0, so the list holds what every workload has. What only
// ingest-mixed has — append latency, restart time after SIGKILL, disk
// footprint — is printed there as report-only # lines (and has its
// per-layer counterparts under segment.* and storage.append_us): made up
// on the read-only workloads by a fixed append epilogue, those cells did
// not hold the widest bound allowed in the acceptance check. Nor did the
// 99th percentile of dash-hot's 0.05 ms requests, which counts the host's
// stalls more than the server's; it is printed report-only everywhere.
var e2eMetrics = []e2eMetric{
	// spawn on a fresh data dir → first 200 on /healthz (median of the run's spawns)
	{"setup_s", "s", "lower", 0.25},
	// OK responses per second, queries and appends (median over the window's 1 s slices)
	{"qps", "1/s", "higher", 0.25},
	// median /query latency (median over the window's slices)
	{"query_p50_ms", "ms", "lower", 0.25},
	// 90th percentile /query latency (median over spans of ≥500 queries)
	{"query_p90_ms", "ms", "lower", 0.25},
	// requests answered 200 with a correct body ÷ attempted (1 − error rate)
	{"ok_ratio", "ratio", "higher", 0.001},
	// child utime+stime ÷ requests (median over the window's 1 s slices)
	{"server_cpu_ms_per_req", "ms", "lower", 0.25},
	// child VmHWM at the end of the window
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// reportOnly names what a run prints as # lines beside its gated metrics
// (all but the first on ingest-mixed only); a per-layer metric may name
// one of these as what it moves.
var reportOnly = []string{"query_p99_ms", "append_p50_ms", "append_p99_ms", "restart_s", "disk_bytes_per_fact"}

// layerMetric is one per-layer metric. counter marks values that are
// deltas of the server's /metrics counters over the traced run's window;
// the rest are medians over the in-process replay. moves names the
// end-to-end metric (or report-only number) and workload the layer metric
// should move.
type layerMetric struct {
	name, unit, better string
	counter            bool
	movesMetric        string
	movesWorkload      string
}

var planShapes = []string{"facts", "global", "kernel-count", "kernel-sum", "group-fold", "cross"}

var fallbackReasons = []string{"holistic", "timeslice", "min-prob", "probabilistic"}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	lm := []layerMetric{
		{"serve.http_self_us", "us", "lower", false, "query_p50_ms", "dash-hot"},
		{"serve.query_self_us", "us", "lower", false, "query_p50_ms", "dash-hot"},
		{"serve.encode_us", "us", "lower", false, "server_cpu_ms_per_req", "dash-hot"},
		{"serve.resp_bytes", "B", "lower", false, "qps", "dash-hot"},
		{"serve.unattributed_ratio", "ratio", "lower", false, "query_p50_ms", "dash-hot"},

		{"admission.admit_us", "us", "lower", false, "query_p50_ms", "adhoc-scan"},
		{"admission.queue_wait_ms", "ms", "lower", true, "query_p90_ms", "adhoc-scan"},
		{"admission.shed_ratio", "ratio", "lower", true, "ok_ratio", "adhoc-scan"},

		{"query.parse_us", "us", "lower", false, "query_p50_ms", "dash-hot"},
		{"query.key_us", "us", "lower", false, "query_p50_ms", "dash-hot"},

		{"cache.get_hit_us", "us", "lower", false, "query_p50_ms", "dash-hot"},
		{"cache.put_us", "us", "lower", false, "server_cpu_ms_per_req", "adhoc-scan"},
		{"cache.upgrade_swap_us", "us", "lower", false, "query_p50_ms", "ingest-mixed"},
		{"cache.hit_ratio", "ratio", "higher", true, "qps", "dash-hot"},
		{"cache.upgrade_ratio", "ratio", "higher", true, "query_p90_ms", "ingest-mixed"},
		{"cache.evictions", "count", "lower", true, "server_cpu_ms_per_req", "adhoc-scan"},
		{"cache.resident_bytes", "B", "lower", true, "rss_peak_mb", "adhoc-scan"},

		{"batch.solo_tax_us", "us", "lower", false, "query_p50_ms", "adhoc-scan"},
		{"batch.members_per_batch", "ratio", "higher", true, "qps", "adhoc-scan"},
		{"batch.bypass_ratio", "ratio", "lower", true, "query_p50_ms", "adhoc-scan"},
	}
	for _, stage := range []struct{ name, unit string }{
		{"plan.prepare_us", "us"}, {"plan.execute_us", "us"}, {"plan.self_us", "us"}, {"plan.allocs", "count"},
	} {
		for _, shape := range planShapes {
			lm = append(lm, layerMetric{stage.name + "." + shape, stage.unit, "lower", false, "query_p50_ms", "adhoc-scan"})
		}
	}
	lm = append(lm,
		layerMetric{"plan.finish_us", "us", "lower", false, "query_p50_ms", "adhoc-scan"},
		layerMetric{"plan.upgrade_us", "us", "lower", false, "query_p50_ms", "ingest-mixed"},
		layerMetric{"plan.fallback_ratio", "ratio", "lower", true, "query_p50_ms", "paper-fallback"},
	)
	for _, k := range []string{"count_bitmap", "count_column", "sum_column", "aggregate_by", "shared_scan", "cross_count"} {
		lm = append(lm, layerMetric{"storage.kernel_us." + k, "us", "lower", false, "query_p50_ms", "adhoc-scan"})
	}
	lm = append(lm,
		layerMetric{"storage.kernel_us.aggregate_by_range", "us", "lower", false, "query_p50_ms", "ingest-mixed"},
		layerMetric{"storage.facts_per_us", "1/us", "higher", false, "qps", "adhoc-scan"},
		layerMetric{"storage.append_us", "us", "lower", false, "append_p50_ms", "ingest-mixed"},
		layerMetric{"storage.build_engine_s", "s", "lower", false, "setup_s", "adhoc-scan"},
		layerMetric{"storage.warm_columns_s", "s", "lower", false, "setup_s", "adhoc-scan"},
		layerMetric{"storage.heap_bytes_per_fact", "B", "lower", false, "rss_peak_mb", "adhoc-scan"},
		layerMetric{"storage.column_kernel_ratio", "ratio", "higher", true, "query_p50_ms", "adhoc-scan"},

		layerMetric{"segment.append_us", "us", "lower", false, "append_p50_ms", "ingest-mixed"},
		layerMetric{"segment.fsyncs_per_append", "ratio", "lower", true, "append_p50_ms", "ingest-mixed"},
		layerMetric{"segment.fold_ms", "ms", "lower", false, "append_p99_ms", "ingest-mixed"},
		layerMetric{"segment.recover_s", "s", "lower", false, "restart_s", "ingest-mixed"},
		layerMetric{"segment.wal_bytes_per_append", "B", "lower", false, "disk_bytes_per_fact", "ingest-mixed"},
		layerMetric{"segment.disk_bytes_per_fact", "B", "lower", false, "disk_bytes_per_fact", "ingest-mixed"},
	)
	for _, r := range fallbackReasons {
		lm = append(lm, layerMetric{"algebra.exec_ms." + r, "ms", "lower", false, "query_p50_ms", "paper-fallback"})
	}
	lm = append(lm,
		layerMetric{"algebra.allocs_per_fact", "count", "lower", false, "qps", "paper-fallback"},
		layerMetric{"casestudy.generate_s", "s", "lower", false, "setup_s", "dash-hot"},
		layerMetric{"trace.coverage_ratio", "ratio", "higher", false, "query_p50_ms", "adhoc-scan"},
		layerMetric{"trace.overhead_ratio", "ratio", "lower", false, "query_p50_ms", "dash-hot"},
	)
	return lm
}

// metricValue is one reported number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
