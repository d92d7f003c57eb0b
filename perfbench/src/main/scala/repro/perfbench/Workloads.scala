package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.ann.BruteForce
import repro.bench.{Equi, World}
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed.{CellEmbedder, ColumnEmbedder, FastTextEmbedder, PlmConfig, PlmEmbedder}
import repro.eval.Metrics
import repro.join.{Joinability, Josie, LshEnsemble, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.Tokenizer
import scala.collection.mutable
import Harness._

/** Input sizes of one workload. */
final case class Sizes(
    repo: Int,       // repository columns indexed
    train: Int,      // training columns (dj-query only)
    pool: Int,       // distinct queries the timed loop cycles through
    quality: Int,    // queries scored for recall and precision
    oracle: Int,     // queries checked against a brute-force scan
    setupReps: Int,  // cold set-ups per run; setup_s is their median
    /** Floors on (recall_at_k, precision_at_10); falling under one is a
      * failure. The defaults sit below the lowest value seen on seeds 1-10.
      */
    floors: (Double, Double))

final case class Params(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    sizes: Sizes)

/** The three workloads. Each is a closed loop on one client thread: a query
  * is sent only after the previous one returned. Spark runs `local[*]` and
  * the GPU-sim encoder uses the common fork-join pool, so no more threads
  * than cores run at once.
  */
object Workloads {

  val names: Seq[String] = Seq("dj-query", "ann-query", "baselines")

  def defaultSizes(workload: String): Sizes = workload match {
    case "dj-query" => Sizes(repo = 1500, train = 500, pool = 300, quality = 200, oracle = 4,
      setupReps = 3, floors = (0.95, 0.5))
    case "ann-query" => Sizes(repo = 3000, train = 0, pool = 400, quality = 200, oracle = 4,
      setupReps = 3, floors = (0.95, 0.45))
    case "baselines" => Sizes(repo = 2000, train = 0, pool = 400, quality = 200, oracle = 3,
      setupReps = 3, floors = (0.45, 0.5))
  }

  /** Sizes for the self-tests, where quality has no floor. */
  val tiny: Sizes = Sizes(repo = 300, train = 200, pool = 24, quality = 12, oracle = 2,
    setupReps = 2, floors = (0.0, 0.0))

  val tau = 0.9
  private val strata = 10
  private val pexesoQueries = 60
  private val warmupQueryCount = 64
  private val allocQueryCount = 64

  def run(p: Params, spark: SparkSession): Outcome = {
    val w = new Run(p, spark)
    p.workload match {
      case "dj-query" => w.djQuery()
      case "ann-query" => w.annQuery()
      case "baselines" => w.baselines()
    }
    w.o.manifest ++= Seq(
      "workload" -> p.workload, "seed" -> p.seed, "seconds" -> p.seconds,
      "trace" -> p.trace, "repo_columns" -> p.sizes.repo,
      "train_columns" -> p.sizes.train, "query_pool" -> p.sizes.pool,
      "quality_queries" -> p.sizes.quality, "oracle_queries" -> p.sizes.oracle,
      "setup_reps" -> p.sizes.setupReps, "warmup_s" -> w.warmS,
      "spark_default_parallelism" -> spark.sparkContext.defaultParallelism)
    if (p.trace) w.o.tracer = Some(w.tr)
    w.o
  }

  /** Tokens the PLM encoder sees for `cells`, capped at `maxTokens` the way
    * `PlmEmbedder.encodeCells` caps them.
    */
  def tokens(e: PlmEmbedder, cells: Seq[String]): Int = {
    var n = 0
    val it = cells.iterator
    while (it.hasNext && n < e.ctx.maxTokens) {
      val ts = Tokenizer.tokenize(it.next()).length
      n = if (ts == 0) n + 1 else math.min(e.ctx.maxTokens, n + ts)
    }
    math.max(1, n)
  }

  /** Multiply-accumulates of `encodeCells` on `len` tokens, from its loop
    * bounds: 2·L²·d per attention layer plus L·d² per feed-forward layer.
    */
  def macs(e: PlmEmbedder, len: Int): Double =
    e.cfg.attnLayers * 2.0 * len * len * e.dCell +
      e.cfg.ffnLayers * len.toDouble * e.dCell * e.dCell

  /** One cold set-up: repository generation, then the index build stages. */
  final case class Rep(genS: Double, stages: Map[String, Double]) {
    def totalS: Double = genS + stages.values.sum
  }

  /** The index of the last set-up of a run, and the medians over all. */
  final case class SetupStats[A](index: A, repo: IndexedSeq[LakeColumn], reps: Seq[Rep],
                                 heapMb: Double) {
    def setupS: Double = median(reps.map(_.totalS))
    def genS: Double = median(reps.map(_.genS))
    def stage(name: String): Double = median(reps.map(_.stages(name)))
  }

  /** Loop index that carries on across timed segments. */
  private final class Cursor { var next = 0 }

  private final class Run(val p: Params, val spark: SparkSession) {
    val o = new Outcome
    val cfg: LakeConfig = LakeConfig.webtable(p.seed)
    /** The query pool: `pool` of `strata`·pool queries from the default
      * query stream, evenly spaced in order of size. Query cost grows with
      * size, so this keeps the pool's size quantiles, and with them the
      * latency percentiles, from jumping between seeds while the queries
      * themselves change. Size is counted in tokens, the encoder's input
      * length, whose square sets the attention cost; ordered by cell count
      * instead, the pool's tail still varies in tokens between seeds.
      */
    val pool: IndexedSeq[LakeColumn] =
      bySize(LakeGenerator.queriesLocal(cfg, p.sizes.pool * strata), p.sizes.pool)

    /** Tokens over all cells of `q`, a cell without any counting one. */
    private def tokenCount(q: LakeColumn): Int =
      q.cells.iterator.map(c => math.max(1, Tokenizer.tokenize(c).length)).sum

    /** `n` of `qs`, evenly spaced in order of token count, shuffled. */
    def bySize(qs: Seq[LakeColumn], n: Int): IndexedSeq[LakeColumn] = {
      val sorted = qs.map(q => (tokenCount(q), q)).sortBy { case (t, q) => (t, q.size, q.id) }
        .map(_._2).toIndexedSeq
      val m = math.min(n, sorted.size)
      new scala.util.Random(p.seed).shuffle((0 until m).map(j => sorted(((j + 0.5) * sorted.size / m).toInt)))
    }
    /** Warm-up queries come from their own id range, disjoint from the pool. */
    val warm: IndexedSeq[LakeColumn] = (0 until warmupQueryCount).map(i =>
      LakeGenerator.genColumn(cfg, 3000000000L + i, LakeGenerator.QuerySalt))
    val warmS: Double = math.min(2.0, math.max(0.5, p.seconds * 0.2))
    val tr = new Tracer
    private var gcCount = 0L
    private var gcMs = 0L
    private val t0 = System.nanoTime()

    def log(msg: String): Unit = Console.err.println(f"[perfbench ${seconds(t0)}%7.2f s] $msg")

    /** Repeat the set-up `setupReps` times, each from a fresh repository.
      * `build` returns the index and the seconds of each of its stages.
      * After each set-up, `segment` runs one share of the timed loop on the
      * new index: the machine's speed drifts over seconds, and segments
      * spread over the run average more of that drift than one block would.
      * The index's heap is the heap in use with it minus the heap in use
      * once it is dropped, so it is measured on every set-up but the last,
      * whose index the run keeps. A full collection before the segment
      * settles the new index into the old generation, as a long-lived
      * index would be, before it is timed.
      */
    def setup[A <: AnyRef](build: (Dataset[LakeColumn], IndexedSeq[LakeColumn]) => (A, Map[String, Double]))
                          (segment: A => Unit): SetupStats[A] = {
      require(p.sizes.setupReps >= 2, "the index heap is measured on all set-ups but the last")
      val reps = mutable.ArrayBuffer.empty[Rep]
      val heapMb = mutable.ArrayBuffer.empty[Double]
      val held = new java.util.concurrent.atomic.AtomicReference[A]()
      var repo: IndexedSeq[LakeColumn] = IndexedSeq.empty
      (1 to p.sizes.setupReps).foreach { r =>
        log(s"set-up $r")
        held.set(null.asInstanceOf[A])
        val ds = LakeGenerator.columns(spark, cfg, p.sizes.repo).cache()
        val (cols, genS) = timeS(ds.collect().sortBy(_.id).toIndexedSeq)
        repo = cols
        val stages = buildInto(held, build, ds, repo)
        ds.unpersist(blocking = true)
        reps += Rep(genS, stages)
        System.gc()
        segment(held.get)
        if (r < p.sizes.setupReps) {
          val withIndex = usedAfterGc()
          held.set(null.asInstanceOf[A])
          heapMb += (withIndex - usedAfterGc()) / 1048576.0
        }
      }
      SetupStats(held.get, repo, reps.toSeq, median(heapMb.toSeq))
    }

    /** Builds into `held` and returns the stage times; once this frame is
      * gone, `held` is the only reference to the index.
      */
    private def buildInto[A](held: java.util.concurrent.atomic.AtomicReference[A],
                             build: (Dataset[LakeColumn], IndexedSeq[LakeColumn]) => (A, Map[String, Double]),
                             ds: Dataset[LakeColumn], repo: IndexedSeq[LakeColumn]): Map[String, Double] = {
      val built = build(ds, repo)
      held.set(built._1)
      built._2
    }

    private def setupMetrics(s: SetupStats[_]): Unit = {
      o.put("setup_s", s.setupS)
      o.put("index_heap_mb", s.heapMb)
      o.put("lake.gen_us_per_col", s.genS / p.sizes.repo * 1e6)
      o.manifest("setup_rep_s") = s.reps.map(_.totalS)
    }

    /** Warm-up before each timed segment: the set-up before it ran other
      * code (Spark, index inserts) on the same classes.
      */
    private def warmUp(body: Int => Unit): Unit = {
      log("warm-up")
      loop(warmS)(body)
    }

    /** A timed segment: `body(i)` for `secs`, with `i` carrying on from the
      * cursor's previous segments; counts the collections it saw.
      */
    private def measure(secs: Double, cursor: Cursor)(body: Int => Unit): Unit = {
      val (c0, t0) = gcTotals()
      val start = cursor.next
      cursor.next += loop(secs)(i => body(start + i))
      val (c1, t1) = gcTotals()
      gcCount += c1 - c0
      gcMs += t1 - t0
      o.put("jvm.gc_count", gcCount.toDouble)
      o.put("jvm.gc_ms", gcMs.toDouble)
    }

    /** Timed-loop length after each set-up. */
    private def segmentS: Double = p.seconds / p.sizes.setupReps

    private def checkNn(res: Seq[(Long, Float)], k: Int, n: Int, what: String): Unit = {
      val want = math.min(k, n)
      o.check(Checks.ranked(res, want, want, ascending = true), s"$what: bad result list $res")
    }

    private def josieFor(repo: IndexedSeq[LakeColumn]): Josie = {
      val (josie, s) = timeS(Josie.build(repo.map(c => (c.id, c.cells))))
      o.put("join.josie_build_s", s)
      josie
    }

    /** JOSIE top-k equals a brute-force scan with `Joinability.equiJn`. */
    private def oracleJosie(josie: Josie, repo: IndexedSeq[LakeColumn], k: Int): Unit =
      pool.take(p.sizes.oracle).foreach { q =>
        val brute = Checks.bruteTopK(repo.map(x => (x.id, Joinability.equiJn(q.cells, x.cells))), k)
        o.check(Checks.sameTopK(josie.topK(q.cells, k), brute), s"JOSIE differs from brute force on query ${q.id}")
      }

    private def quality(recall: Double, precision: Double): Unit = {
      val (recallFloor, precisionFloor) = p.sizes.floors
      o.put("recall_at_k", recall)
      o.put("precision_at_10", precision)
      o.check(recall >= recallFloor, f"recall_at_k $recall%.4f below floor $recallFloor")
      o.check(precision >= precisionFloor, f"precision_at_10 $precision%.4f below floor $precisionFloor")
    }

    /** Recall against `BruteForce` on the same query vectors and precision@10
      * against JOSIE's exact equi top-10; JOSIE's query time goes to
      * `join.josie_p99_ms`.
      */
    private def annQuality(idx: DeepJoinIndex, vecs: IndexedSeq[Array[Float]],
                           qvs: IndexedSeq[Array[Float]], josie: Josie,
                           k: Int, ef: Int): Unit = {
      val josieLat = new Lat
      val rec = mutable.ArrayBuffer.empty[Double]
      val prec = mutable.ArrayBuffer.empty[Double]
      (0 until math.min(p.sizes.quality, pool.size)).foreach { i =>
        val q = pool(i)
        val exact = timed(josieLat)(josie.topK(q.cells, 10)).map(_._1)
        val res = DeepJoin.search(idx, q, k, ef)._1.map(_._1)
        prec += Metrics.precisionAtK(res, exact, 10)
        val hn = idx.hnsw.search(qvs(i), k, math.max(ef, k + 16)).map(_._1).toSet
        val bf = BruteForce.search(vecs, qvs(i), k).map(_._1)
        rec += bf.count(hn.contains).toDouble / bf.length
      }
      o.putLat("join.josie_p99_ms", josieLat, 0.99)
      quality(mean(rec), mean(prec))
    }

    private def indexShape(idx: DeepJoinIndex): Unit = {
      val h = idx.hnsw
      o.put("ann.layer0_degree_mean", mean((0 until h.size).map(i => h.neighbors(i, 0).length.toDouble)))
      var levels = 0
      while ((0 until h.size).exists(i => h.neighbors(i, levels).nonEmpty)) levels += 1
      o.put("ann.levels", levels.toDouble)
    }

    private def embedSetup(embedder: ColumnEmbedder)
                          (segment: DeepJoinIndex => Unit): SetupStats[DeepJoinIndex] = {
      val s = setup { (ds, _) =>
        val (emb, encS) = timeS(DeepJoin.encodeAll(spark, ds, embedder))
        val (idx, insS) = timeS(DeepJoin.buildIndex(emb, embedder))
        (idx, Map("encode" -> encS, "insert" -> insS))
      }(segment)
      setupMetrics(s)
      o.put("embed.encode_cols_per_s", p.sizes.repo / s.stage("encode"))
      o.put("ann.build_s", s.stage("insert"))
      o.put("ann.insert_per_s", p.sizes.repo / s.stage("insert"))
      o.manifest("hnsw") = Map("m" -> s.index.hnsw.m, "ef_construction" -> s.index.hnsw.efConstruction)
      s
    }

    private def vectors(idx: DeepJoinIndex): IndexedSeq[Array[Float]] =
      (0 until idx.size).map(idx.hnsw.vector)

    /** Untraced `DeepJoin.search` with its `SearchTiming` split, for the
      * traced run's `core.*` metrics and its tracing-overhead baseline.
      */
    private final class CoreSplit {
      val wall, enc, ann, self = new Lat
      def search(idx: DeepJoinIndex, q: LakeColumn, k: Int, ef: Int): Seq[(Long, Float)] = {
        val t0 = System.nanoTime()
        val (res, st) = DeepJoin.search(idx, q, k, ef)
        val ms = (System.nanoTime() - t0) / 1e6
        wall += ms; enc += st.encodeMs; ann += st.annMs; self += ms - st.totalMs
        res
      }
      def report(): Unit = {
        o.putLat("core.encode_ms", enc, 0.5)
        o.putLat("core.ann_ms", ann, 0.5)
        o.putLat("core.self_ms", self, 0.5)
      }
    }

    /** The untraced and the traced form of query `i`, alternating which
      * goes first so that neither always finds the caches warm.
      */
    private def bothOrders(i: Int)(untraced: => Unit)(traced: => Unit): Unit =
      if (i % 2 == 0) { untraced; traced } else { traced; untraced }

    private def traceMetrics(untraced: Lat, encodeSpans: Seq[String]): Unit = {
      val roots = tr.lat("query")
      o.put("trace.overhead_pct", (roots.p(0.5) - untraced.p(0.5)) / untraced.p(0.5) * 100)
      o.putLat("trace.uncovered_ms", tr.uncovered("query"), 0.5)
      val total = tr.totalMs("query")
      o.put("trace.encode_share_pct", encodeSpans.map(tr.totalMs).sum / total * 100)
      o.put("trace.ann_share_pct", tr.totalMs("ann.search") / total * 100)
      o.put("trace.spans", tr.count.toDouble)
      o.samples("trace.query") = roots.n
    }

    // ------------------------------------------------------------ dj-query

    def djQuery(): Unit = {
      val k = 10
      val ef = 96
      // Cold, once per process: World memoizes the corpus, the positives and
      // the model, so a second call in this JVM would time cache hits.
      log("training")
      val corpus = World.corpus(spark, cfg, nRepo = p.sizes.repo, nTrain = p.sizes.train, nQuery = 1)
      val (pos, posS) = timeS(World.positives(spark, corpus, Equi))
      val (cpu, fitS) = timeS(World.trainDeepJoin(spark, corpus, Equi, PlmConfig.mpnet))
      o.put("train.positives_s", posS)
      o.put("train.fit_s", fitS)
      o.put("train.pairs", pos.size.toDouble)
      val gpu = new PlmEmbedder(cpu.cfg, cpu.ctx, cpu.head, parallel = true,
        idfPooling = cpu.idfPooling)
      val head = cpu.head.getOrElse(sys.error("a trained model has a head"))
      val qvs = pool.map(cpu.embed)
      o.manifest ++= Seq("k" -> k, "ef" -> ef, "encoder" -> cpu.name)

      val cpuLat = new PerQuery(pool.size)
      val core = new CoreSplit
      var loopMacs = 0.0
      val cursor = new Cursor
      val s = embedSetup(cpu) { idx =>
        val n = idx.size
        warmUp { i =>
          val q = warm(i % warm.size)
          DeepJoin.search(idx, q, k, ef)
          if (p.trace) gpu.encodeCells(cpu.ctx.render(q).cells)
        }
        if (!p.trace) measure(segmentS, cursor) { i =>
          val qi = i % pool.size
          checkNn(cpuLat.time(qi)(DeepJoin.search(idx, pool(qi), k, ef))._1, k, n, "cpu")
        }
        else measure(segmentS, cursor) { i =>
          val q = pool(i % pool.size)
          var res: Seq[(Long, Float)] = Nil
          var nn: Array[(Int, Float)] = Array.empty
          bothOrders(i) { res = core.search(idx, q, k, ef) } {
            // The calls DeepJoin.search makes, one span each.
            nn = tr.span(i, "query") {
              val pooled = tr.span(i, "embed.base_features")(cpu.baseFeatures(q))
              val v = tr.span(i, "embed.head")(head(pooled))
              tr.span(i, "ann.search")(idx.hnsw.search(v, k, math.max(ef, k + 16)))
            }
          }
          checkNn(res, k, n, "cpu")
          o.check(nn.map(x => idx.ids(x._1)).toSeq == res.map(_._1),
            s"traced replay differs from DeepJoin.search on query ${q.id}")
          // The steps baseFeatures runs inside, replayed as their own calls.
          val rendered = tr.span(i, "text.render")(cpu.ctx.render(q))
          tr.span(i, "embed.encode_cells")(cpu.encodeCells(rendered.cells))
          tr.span(i, "embed.gpu_encode_cells")(gpu.encodeCells(rendered.cells))
          loopMacs += macs(cpu, tokens(cpu, rendered.cells))
        }
      }
      val idx = s.index
      val vecs = vectors(idx)
      if (!p.trace) {
        o.putQ("query_p50_ms", cpuLat, 0.5)
        o.putQ("query_p95_ms", cpuLat, 0.95)
      } else {
        core.report()
        o.putLat("text.render_us", tr.lat("text.render"), 0.5, 1000)
        o.putLat("embed.encode_cells_p50_ms", tr.lat("embed.encode_cells"), 0.5)
        o.putLat("embed.encode_cells_p99_ms", tr.lat("embed.encode_cells"), 0.99)
        o.putLat("embed.base_features_ms", tr.lat("embed.base_features"), 0.5)
        o.putLat("embed.head_us", tr.lat("embed.head"), 0.5, 1000)
        o.putLat("embed.gpu_encode_cells_ms", tr.lat("embed.gpu_encode_cells"), 0.5)
        o.putLat("ann.search_p50_ms", tr.lat("ann.search"), 0.5)
        o.putLat("ann.search_p99_ms", tr.lat("ann.search"), 0.99)
        o.put("embed.gmac_per_s", loopMacs / (tr.totalMs("embed.encode_cells") / 1e3) / 1e9)
        traceMetrics(core.wall, Seq("embed.base_features", "embed.head"))
      }

      val lens = pool.map(q => tokens(cpu, cpu.ctx.render(q).cells))
      o.put("text.tokens_per_query", mean(lens.map(_.toDouble)))
      o.put("embed.mmac_per_query", mean(lens.map(macs(cpu, _))) / 1e6)
      val sub = pool.take(allocQueryCount)
      o.put("embed.alloc_kb_per_query", allocKbPer(sub)(cpu.embed))
      o.put("ann.search_alloc_kb", allocKbPer(qvs.take(allocQueryCount))(
        v => idx.hnsw.search(v, k, math.max(ef, k + 16))))
      indexShape(idx)
      val josie = josieFor(s.repo)
      annQuality(idx, vecs, qvs, josie, k, ef)
      oracleJosie(josie, s.repo, k)
    }

    // ----------------------------------------------------------- ann-query

    def annQuery(): Unit = {
      val k = 50
      val ef = 256
      val ft = new FastTextEmbedder()
      val qvs = pool.map(ft.embed)
      o.manifest ++= Seq("k" -> k, "ef" -> ef, "encoder" -> ft.name)

      val lat = new PerQuery(pool.size)
      val core = new CoreSplit
      val cursor = new Cursor
      val s = embedSetup(ft) { idx =>
        val n = idx.size
        warmUp(i => DeepJoin.search(idx, warm(i % warm.size), k, ef))
        if (!p.trace) measure(segmentS, cursor) { i =>
          val qi = i % pool.size
          checkNn(lat.time(qi)(DeepJoin.search(idx, pool(qi), k, ef))._1, k, n, "k50")
        }
        else measure(segmentS, cursor) { i =>
          val q = pool(i % pool.size)
          var res: Seq[(Long, Float)] = Nil
          var nn: Array[(Int, Float)] = Array.empty
          bothOrders(i) { res = core.search(idx, q, k, ef) } {
            nn = tr.span(i, "query") {
              val v = tr.span(i, "embed.embed")(ft.embed(q))
              tr.span(i, "ann.search")(idx.hnsw.search(v, k, math.max(ef, k + 16)))
            }
          }
          checkNn(res, k, n, "k50")
          o.check(nn.map(x => idx.ids(x._1)).toSeq == res.map(_._1),
            s"traced replay differs from DeepJoin.search on query ${q.id}")
        }
      }
      val idx = s.index
      val vecs = vectors(idx)
      if (!p.trace) {
        o.putQ("query_p50_ms", lat, 0.5)
        o.putQ("query_p95_ms", lat, 0.95)
      } else {
        core.report()
        o.putLat("ann.search_p50_ms", tr.lat("ann.search"), 0.5)
        o.putLat("ann.search_p99_ms", tr.lat("ann.search"), 0.99)
        traceMetrics(core.wall, Seq("embed.embed"))
      }

      o.put("embed.alloc_kb_per_query", allocKbPer(pool.take(allocQueryCount))(ft.embed))
      o.put("ann.search_alloc_kb", allocKbPer(qvs.take(allocQueryCount))(
        v => idx.hnsw.search(v, k, math.max(ef, k + 16))))
      indexShape(idx)
      val josie = josieFor(s.repo)
      annQuality(idx, vecs, qvs, josie, k, ef)
      oracleJosie(josie, s.repo, k)
    }

    // ----------------------------------------------------------- baselines

    def baselines(): Unit = {
      val k = 10
      final case class Indexes(josie: Josie, lsh: LshEnsemble, pexeso: Pexeso)
      o.manifest ++= Seq("k" -> k, "tau" -> tau)

      def checkJoin(res: Seq[(Long, Double)], what: String): Unit =
        o.check(Checks.ranked(res, 0, k, ascending = false), s"$what: bad result list $res")

      // PEXESO is two orders of magnitude slower than JOSIE, so it gets its
      // own part of each segment, over fewer queries, rather than every
      // JOSIE query.
      val pexPool = bySize(pool, pexesoQueries)
      val equiS = segmentS * 0.6
      val pexS = segmentS - equiS
      val josieLat = new PerQuery(pool.size)
      val untraced = new Lat
      val equiCursor, pexCursor = new Cursor
      val s = setup { (_, repo) =>
        val cols = repo.map(c => (c.id, c.cells))
        val (josie, jS) = timeS(Josie.build(cols))
        val (lsh, lS) = timeS(LshEnsemble.build(cols))
        val (pexeso, pS) = timeS(Pexeso.build(cols))
        (Indexes(josie, lsh, pexeso), Map("josie" -> jS, "lsh" -> lS, "pexeso" -> pS))
      } { case Indexes(josie, lsh, pexeso) =>
        warmUp { i =>
          val q = warm(i % warm.size)
          josie.topK(q.cells, k)
          lsh.topK(q.cells, k)
          if (i % 8 == 0) pexeso.topK(q.cells, tau, k)
        }
        if (!p.trace) {
          measure(equiS, equiCursor) { i =>
            val qi = i % pool.size
            checkJoin(josieLat.time(qi)(josie.topK(pool(qi).cells, k)), "JOSIE")
            checkJoin(lsh.topK(pool(qi).cells, k), "LSH Ensemble")
          }
          measure(pexS, pexCursor) { i =>
            val qi = i % pexPool.size
            checkJoin(pexeso.topK(pexPool(qi).cells, tau, k), "PEXESO")
          }
        } else {
          measure(equiS, equiCursor) { i =>
            val q = pool(i % pool.size)
            bothOrders(i)(timed(untraced) { josie.topK(q.cells, k); lsh.topK(q.cells, k) }) {
              tr.span(i, "query") {
                checkJoin(tr.span(i, "join.josie")(josie.topK(q.cells, k)), "JOSIE")
                checkJoin(tr.span(i, "join.lsh")(lsh.topK(q.cells, k)), "LSH Ensemble")
              }
            }
          }
          measure(pexS, pexCursor) { i =>
            checkJoin(tr.span(-1L - i, "join.pexeso")(pexeso.topK(pexPool(i % pexPool.size).cells, tau, k)), "PEXESO")
          }
        }
      }
      setupMetrics(s)
      o.put("join.josie_build_s", s.stage("josie"))
      o.put("join.lsh_build_s", s.stage("lsh"))
      o.put("join.pexeso_build_s", s.stage("pexeso"))
      val Indexes(josie, lsh, pexeso) = s.index
      val repo = s.repo
      if (!p.trace) {
        o.putQ("query_p50_ms", josieLat, 0.5)
        o.putQ("query_p95_ms", josieLat, 0.95)
      } else {
        o.putLat("join.josie_p99_ms", tr.lat("join.josie"), 0.99)
        o.putLat("join.lsh_p99_ms", tr.lat("join.lsh"), 0.99)
        o.putLat("join.pexeso_p95_ms", tr.lat("join.pexeso"), 0.95)
        traceMetrics(untraced, Nil)
      }

      // Recall of LSH Ensemble and precision of PEXESO, both against JOSIE's
      // exact equi top-10. PEXESO is scored on half of the queries.
      val nq = math.min(p.sizes.quality, pool.size)
      val exact = pool.take(nq).map(q => josie.topK(q.cells, 10).map(_._1))
      val rec = (0 until nq).map(i => Metrics.precisionAtK(lsh.topK(pool(i).cells, 10).map(_._1), exact(i), 10))
      val prec = (0 until math.max(1, nq / 2)).map(i =>
        Metrics.precisionAtK(pexeso.topK(pool(i).cells, tau, 10).map(_._1), exact(i), 10))
      quality(mean(rec), mean(prec))

      oracleJosie(josie, repo, k)
      val cellVecs = repo.map(x => CellEmbedder.default.embedColumn(x.cells))
      pool.take(p.sizes.oracle).foreach { q =>
        val qv = CellEmbedder.default.embedColumn(q.cells)
        val brute = Checks.bruteTopK(repo.indices.map(j =>
          (repo(j).id, Joinability.semanticJn(qv, cellVecs(j), tau))), k)
        o.check(Checks.sameTopK(pexeso.topK(q.cells, tau, k), brute),
          s"PEXESO differs from brute force on query ${q.id}")
      }
    }
  }
}
