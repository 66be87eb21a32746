package main

// metricDef names one metric. BENCHMARK.json at the root of the
// repository lists the same names, units and directions
// (TestBenchmarkJSONMatches); README.md defines each.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a caller of cqad sees, measured with tracing
// off. Each is the median over the segments of one window.
var endToEnd = []metricDef{
	{"read_ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the numbers of single layers, from the traced run: [S]
// read from the served process, [P] timed by bench/layers, [C] seen by
// the client. A layer a workload does not reach has no value: it is left
// out of the result and printed as absent.
var perLayer = []metricDef{
	{"server.request_us", "us", "lower", 0},                             // [S] p50 of the request's trace
	{"server.http_overhead_us", "us", "lower", 0},                       // [C−S] client p50 minus server.request_us
	{"server.decode_us", "us", "lower", 0},                              // [P]
	{"server.encode_us", "us", "lower", 0},                              // [P]
	{"server.rejected_share", "share", "lower", 0},                      // [S]
	{"server.router.gather_us", "us", "lower", 0},                       // [S] explain stage
	{"server.router.rpc_us", "us", "lower", 0},                          // [S] rpc spans per read
	{"server.router.merge_us", "us", "lower", 0},                        // [S] gather minus its rpc spans
	{"server.router.rpcs_per_read", "count", "lower", 0},                // [S]
	{"server.router.facts_bytes_per_read", "B", "lower", 0},             // [C] size of a shard's export
	{"server.facts_export_us", "us", "lower", 0},                        // [C] GET /v1/db/facts on a shard
	{"parse.query_us", "us", "lower", 0},                                // [S] stage parse
	{"parse.facts_stage_us", "us", "lower", 0},                          // [S] stage parse-facts
	{"parse.facts_us_per_kfact", "us", "lower", 0},                      // [P]
	{"core.prepare_us", "us", "lower", 0},                               // [P]
	{"core.rewriting_nodes", "count", "lower", 0},                       // [S]
	{"engine.prepare_us", "us", "lower", 0},                             // [S] stage prepare
	{"engine.plan_cache_hit_share", "share", "higher", 0},               // [S]
	{"engine.result_cache_hit_share", "share", "higher", 0},             // [S]
	{"engine.eval_stage_us", "us", "lower", 0},                          // [S] stage eval
	{"engine.bitmap_eval_share", "share", "higher", 0},                  // [S]
	{"engine.batch_us_per_item", "us", "lower", 0},                      // [P]
	{"db.intern_ms", "ms", "lower", 0},                                  // [P]
	{"db.intern_next_ms", "ms", "lower", 0},                             // [P]
	{"db.bitset_build_ms", "ms", "lower", 0},                            // [P]
	{"db.dict_ids", "count", "lower", 0},                                // [P]
	{"fo.first_eval_ms", "ms", "lower", 0},                              // [P]
	{"fo.warm_eval_ns", "ns", "lower", 0},                               // [P]
	{"fo.eval_share", "share", "lower", 0},                              // [P/C] warm evaluation over read_p50_ms
	{"planner.matching_us", "us", "lower", 0},                           // [P]
	{"planner.reachability_us", "us", "lower", 0},                       // [P]
	{"naive.hard_us", "us", "lower", 0},                                 // [P]
	{"store.apply_ms", "ms", "lower", 0},                                // [P]
	{"store.wal_append_us", "us", "lower", 0},                           // [S] wal-append spans
	{"store.wal_bytes_per_write", "B", "lower", 0},                      // [C]
	{"store.checkpoints", "count", "lower", 0},                          // [S]
	{"store.recover_ms", "ms", "lower", 0},                              // [C]
	{"shard.union_ms", "ms", "lower", 0},                                // [P]
	{"shard.touched_shards_per_read", "count", "lower", 0},              // [S]
	{"delta.apply_us_per_change_1k", "us", "lower", 0},                  // [P]
	{"delta.apply_us_per_change_10k", "us", "lower", 0},                 // [P]
	{"delta.register_us", "us", "lower", 0},                             // [P]
	{"delta.reeval_share", "share", "lower", 0},                         // [S]
	{"delta.flips", "count", "higher", 0},                               // [C]
	{"obs.trace_overhead_share", "share", "lower", 0},                   // [C]
	{"obs.traces_dropped", "count", "lower", 0},                         // [S]
	{"client.read_p95_ms", "ms", "lower", 0},                            // [C]
	{"client.read_p99_ms", "ms", "lower", 0},                            // [C]
	{"client.samples", "count", "higher", 0},                            // [C]
	{"client.segment_spread.read_ops_per_s", "share", "lower", 0},       // [C]
	{"client.segment_spread.read_p50_ms", "share", "lower", 0},          // [C]
	{"client.segment_spread.server_cpu_ms_per_op", "share", "lower", 0}, // [C]
	{"client.writer_late_ms", "ms", "lower", 0},                         // [C]
	{"client.certain_share", "share", "higher", 0},                      // [C]
	{"client.write_p50_ms", "ms", "lower", 0},                           // [C]
	{"client.write_p95_ms", "ms", "lower", 0},                           // [C]
	{"client.flip_lag_p50_ms", "ms", "lower", 0},                        // [C]
	{"client.failed_share", "share", "lower", 0},                        // [C]
}
