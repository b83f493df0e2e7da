package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names; its bounds are the regression gate and live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the embedded engine sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "agg_hc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sort_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_qps", Unit: "1/s", Better: "higher"},
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "copy_in_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "wrangle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "reopen_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// endToEndValues derives the end-to-end metrics from what the phases
// recorded. setup_s is added by the parent, which timed set-up.
func endToEndValues(rec *recorder, rows int, rssMB float64) map[string]float64 {
	p50 := func(stem string) float64 { return median(rec.samples[stem]) }
	serve := sortedCopy(rec.samples["serve"])
	return map[string]float64{
		"scan_p50_ms":         p50("scan"),
		"agg_p50_ms":          p50("agg"),
		"agg_hc_p50_ms":       p50("agg_hc"),
		"join_p50_ms":         p50("join"),
		"sort_p50_ms":         p50("sort"),
		"window_p50_ms":       p50("window"),
		"serve_qps":           float64(len(serve)) / rec.counts["serve.window_s"],
		"serve_p50_ms":        quantile(serve, 0.50),
		"serve_p95_ms":        quantile(serve, 0.95),
		"copy_in_rows_per_s":  float64(rows) / (p50("copy_in") / 1e3),
		"wrangle_p50_ms":      p50("wrangle"),
		"checkpoint_p50_ms":   p50("checkpoint"),
		"reopen_query_p50_ms": p50("reopen_query"),
		"peak_rss_mb":         rssMB,
	}
}

// perLayer lists the metrics of single layers; the layers are this
// repository's packages. README.md says where each comes from (a probe,
// the spans of the traced run, or a count the phases take anyway) and
// which end-to-end metric it should move on which workload.
var perLayer = []metricDef{
	{"sql.parse_ns_per_query", "ns", "lower"},
	{"sql.parse_allocs_per_query", "count", "lower"},
	{"plan.bind_ns_per_query", "ns", "lower"},
	{"plan.optimize_ns_per_query", "ns", "lower"},
	{"expr.compare_ns_per_row", "ns", "lower"},
	{"expr.arith_ns_per_row", "ns", "lower"},
	{"expr.filter_allocs_per_chunk", "count", "lower"},
	{"vector.compact_ns_per_row", "ns", "lower"},
	{"vector.append_range_ns_per_row", "ns", "lower"},
	{"vector.codec_ns_per_row", "ns", "lower"},
	{"compress.encode_int_ns_per_row", "ns", "lower"},
	{"compress.decode_int_ns_per_row", "ns", "lower"},
	{"compress.dict_decode_ns_per_row", "ns", "lower"},
	{"compress.select_for_ns_per_row", "ns", "lower"},
	{"compress.select_rle_ns_per_row", "ns", "lower"},
	{"compress.select_dict_ns_per_row", "ns", "lower"},
	{"compress.gather_ns_per_row", "ns", "lower"},
	{"compress.bytes_per_value", "B", "lower"},
	{"table.scan_ns_per_row", "ns", "lower"},
	{"table.scan_cold_ns_per_row", "ns", "lower"},
	{"table.scan_allocs_per_row", "count", "lower"},
	{"table.append_ns_per_row", "ns", "lower"},
	{"table.segments_skipped_ratio", "ratio", "higher"},
	{"table.segments_encoded_ratio", "ratio", "higher"},
	{"table.decoded_rows_per_selected_row", "ratio", "lower"},
	{"table.bytes_decompressed_per_round", "B", "lower"},
	{"exec.scan_busy_ns_per_row", "ns", "lower"},
	{"exec.agg_self_ns_per_row", "ns", "lower"},
	{"exec.agg_hc_self_ns_per_row", "ns", "lower"},
	{"exec.join_self_ns_per_row", "ns", "lower"},
	{"exec.sort_self_ns_per_row", "ns", "lower"},
	{"exec.window_self_ns_per_row", "ns", "lower"},
	{"exec.agg_spill_bytes_per_round", "B", "lower"},
	{"exec.sort_spill_bytes_per_round", "B", "lower"},
	{"exec.execute_share", "ratio", "higher"},
	{"extsort.run_sort_ns_per_row", "ns", "lower"},
	{"extsort.spill_sort_ns_per_row", "ns", "lower"},
	{"extsort.merge_ns_per_row", "ns", "lower"},
	{"extsort.compare_ns", "ns", "lower"},
	{"extsort.run_sort_allocs_per_row", "count", "lower"},
	{"extsort.spill_bytes_per_row", "B", "lower"},
	{"extsort.staterun_ns_per_state", "ns", "lower"},
	{"sched.step_overhead_ns", "ns", "lower"},
	{"sched.step_wait_p50_ns", "ns", "lower"},
	{"sched.step_wait_p99_ns", "ns", "lower"},
	{"sched.steps_per_query", "count", "lower"},
	{"sched.aging_picks_ratio", "ratio", "lower"},
	{"sched.session_fairness", "ratio", "higher"},
	{"sched.serve_p99_ms", "ms", "lower"},
	{"sched.write_beside_reads_p50_ms", "ms", "lower"},
	{"buffer.reserve_release_ns", "ns", "lower"},
	{"buffer.peak_bytes", "B", "lower"},
	{"buffer.evictions_per_round", "count", "lower"},
	{"storage.write_block_ns", "ns", "lower"},
	{"storage.read_block_ns", "ns", "lower"},
	{"storage.blocks_written_per_cycle", "count", "lower"},
	{"storage.blocks_read_per_round", "count", "lower"},
	{"storage.file_bytes_per_row", "B", "lower"},
	{"wal.commit_ns", "ns", "lower"},
	{"wal.bytes_per_write_txn", "B", "lower"},
	{"wal.bytes_per_row_ingested", "B", "lower"},
	{"csvio.read_ns_per_row", "ns", "lower"},
	{"csvio.write_ns_per_row", "ns", "lower"},
	{"core.parse_bind_optimize_ns_per_query", "ns", "lower"},
	{"core.admit_wait_ns_per_query", "ns", "lower"},
	{"core.open_ns", "ns", "lower"},
	{"core.close_ns", "ns", "lower"},
	{"core.checkpoint_ns_per_row", "ns", "lower"},
	{"core.txn_commit_ns", "ns", "lower"},
	{"core.write_txn_p50_ms", "ms", "lower"},
	{"quack.append_row_ns_per_row", "ns", "lower"},
	{"quack.append_chunk_ns_per_row", "ns", "lower"},
	{"quack.fetch_chunk_ns_per_row", "ns", "lower"},
	{"quack.fetch_value_ns_per_row", "ns", "lower"},
	{"quack.fetch_value_allocs_per_row", "count", "lower"},
	{"quack.heap_alloc_mb_per_round", "MB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues derives the trace and phase metrics; the probes add theirs.
func layerValues(rec *recorder, tr *tracer, rows int) map[string]float64 {
	c := rec.counts
	rounds := c["olap.rounds"]
	n := float64(rows)
	ms := func(stem string) float64 { return median(rec.samples[stem]) * 1e6 } // ms -> ns
	v := map[string]float64{
		"table.segments_skipped_ratio": ratio(c["olap.scan_segments_skipped_total"],
			c["olap.scan_segments_skipped_total"]+c["olap.scan_segments_scanned_total"]),
		"table.segments_encoded_ratio":       ratio(c["olap.scan_segments_encoded_total"], c["olap.scan_segments_scanned_total"]),
		"table.bytes_decompressed_per_round": ratio(c["olap.scan_bytes_decompressed_total"], rounds),
		"exec.agg_spill_bytes_per_round":     ratio(c["olap.agg_spill_bytes_total"], rounds),
		"exec.sort_spill_bytes_per_round":    ratio(c["olap.sort_spill_bytes_total"], rounds),
		"sched.step_wait_p50_ns":             c["serve.sched_step_wait_p50_ns"],
		"sched.step_wait_p99_ns":             c["serve.sched_step_wait_p99_ns"],
		"sched.steps_per_query":              ratio(c["serve.sched_steps_total"], c["serve.query_count"]),
		"sched.aging_picks_ratio":            ratio(c["serve.sched_aging_picks_total"], c["serve.sched_steps_total"]),
		"sched.session_fairness":             c["serve.fairness"],
		"sched.serve_p99_ms":                 quantile(sortedCopy(rec.samples["serve"]), 0.99),
		"buffer.peak_bytes":                  c["olap.pool_peak_bytes"],
		"buffer.evictions_per_round":         ratio(c["olap.pool_evictions_total"], rounds),
		"storage.blocks_written_per_cycle":   ratio(c["etl.blocks_written"], c["etl.cycles"]),
		"storage.blocks_read_per_round":      ratio(c["olap.blocks_read"], rounds),
		"storage.file_bytes_per_row":         ratio(c["etl.file_bytes"], n),
		"wal.bytes_per_write_txn":            ratio(c["serve.wal_bytes"], float64(len(rec.samples["write_beside_reads"]))),
		"sched.write_beside_reads_p50_ms":    median(rec.samples["write_beside_reads"]),
		"wal.bytes_per_row_ingested":         ratio(c["etl.copy_wal_bytes"], c["etl.cycles"]*n),
		"core.open_ns":                       ms("core.open"),
		"core.close_ns":                      ms("core.close"),
		"core.checkpoint_ns_per_row":         ms("checkpoint") / n,
		"core.txn_commit_ns":                 ms("core.txn_commit"),
		"core.write_txn_p50_ms":              median(rec.samples["write_txn"]),
		"quack.heap_alloc_mb_per_round":      ratio(c["olap.heap_alloc_bytes"], rounds) / (1 << 20),
		"trace.overhead_ratio":               ratio(median(rec.samples["round_traced"]), median(rec.samples["round_untraced"])),
	}
	if tr == nil {
		return v
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all classTrace
	for _, ct := range tr.classes {
		all.Queries += ct.Queries
		all.RootNs += ct.RootNs
		all.PlanNs += ct.PlanNs
		all.AdmitNs += ct.AdmitNs
		all.ExecuteNs += ct.ExecuteNs
		all.Decoded += ct.Decoded
		all.Selected += ct.Selected
	}
	// perRow is the self time of the operator family that names a class,
	// per input row of that class's queries.
	perRow := func(class, kind string) float64 {
		ct := tr.classes[class]
		if ct == nil {
			return 0
		}
		return ratio(float64(ct.SelfNs[kind]), float64(ct.Queries)*n)
	}
	v["table.decoded_rows_per_selected_row"] = ratio(float64(all.Decoded), float64(all.Selected))
	if ct := tr.classes["scan"]; ct != nil {
		v["exec.scan_busy_ns_per_row"] = ratio(float64(ct.ScanBusy), float64(ct.ScanRows))
	}
	v["exec.agg_self_ns_per_row"] = perRow("agg", "agg")
	v["exec.agg_hc_self_ns_per_row"] = perRow("agg_hc", "agg")
	v["exec.join_self_ns_per_row"] = perRow("join", "join")
	v["exec.sort_self_ns_per_row"] = perRow("sort", "sort")
	v["exec.window_self_ns_per_row"] = perRow("window", "window")
	v["exec.execute_share"] = ratio(float64(all.ExecuteNs), float64(all.RootNs))
	v["core.parse_bind_optimize_ns_per_query"] = ratio(float64(all.PlanNs), float64(all.Queries))
	v["core.admit_wait_ns_per_query"] = ratio(float64(all.AdmitNs), float64(all.Queries))
	// The classes whose time should be all operator time; a large share
	// here means the table above is missing a layer.
	for _, class := range []string{"sort", "window", "agg"} {
		v["trace.unattributed_share"] = max(v["trace.unattributed_share"], tr.classes[class].unattributed())
	}
	return v
}
