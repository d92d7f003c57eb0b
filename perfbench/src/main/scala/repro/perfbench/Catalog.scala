package repro.perfbench

/** Every metric the benchmark emits, with its unit. `BENCHMARK.json` lists
  * the same names; the self-tests check that the two agree.
  *
  * The end-to-end metrics are emitted by every workload (untraced run). The
  * query latencies time `DeepJoin.search` with the CPU encoder on dj-query,
  * `DeepJoin.search` with fastText on ann-query and `Josie.topK` on
  * baselines.
  *
  * The per-layer metrics come from the traced run. A layer that a workload
  * does not call reports 0.
  */
object Catalog {

  final case class Metric(name: String, unit: String)

  val endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("query_p50_ms", "ms"),
    Metric("query_p95_ms", "ms"),
    Metric("recall_at_k", "ratio"),
    Metric("precision_at_10", "ratio"),
    Metric("index_heap_mb", "MB"))

  val perLayer: Seq[Metric] = Seq(
    Metric("text.render_us", "us"),
    Metric("text.tokens_per_query", "count"),
    Metric("embed.encode_cells_p50_ms", "ms"),
    Metric("embed.encode_cells_p99_ms", "ms"),
    Metric("embed.base_features_ms", "ms"),
    Metric("embed.head_us", "us"),
    Metric("embed.gpu_encode_cells_ms", "ms"),
    Metric("embed.mmac_per_query", "MMAC"),
    Metric("embed.gmac_per_s", "GMAC/s"),
    Metric("embed.alloc_kb_per_query", "KB"),
    Metric("embed.encode_cols_per_s", "1/s"),
    Metric("ann.search_p50_ms", "ms"),
    Metric("ann.search_p99_ms", "ms"),
    Metric("ann.search_alloc_kb", "KB"),
    Metric("ann.build_s", "s"),
    Metric("ann.insert_per_s", "1/s"),
    Metric("ann.layer0_degree_mean", "count"),
    Metric("ann.levels", "count"),
    Metric("core.encode_ms", "ms"),
    Metric("core.ann_ms", "ms"),
    Metric("core.self_ms", "ms"),
    Metric("lake.gen_us_per_col", "us"),
    Metric("train.positives_s", "s"),
    Metric("train.fit_s", "s"),
    Metric("train.pairs", "count"),
    Metric("join.josie_build_s", "s"),
    Metric("join.lsh_build_s", "s"),
    Metric("join.pexeso_build_s", "s"),
    Metric("join.josie_p99_ms", "ms"),
    Metric("join.lsh_p99_ms", "ms"),
    Metric("join.pexeso_p95_ms", "ms"),
    Metric("jvm.gc_ms", "ms"),
    Metric("jvm.gc_count", "count"),
    Metric("trace.overhead_pct", "%"),
    Metric("trace.uncovered_ms", "ms"),
    Metric("trace.encode_share_pct", "%"),
    Metric("trace.ann_share_pct", "%"),
    Metric("trace.spans", "count"))

  def forTrace(trace: Boolean): Seq[Metric] = if (trace) perLayer else endToEnd
}
