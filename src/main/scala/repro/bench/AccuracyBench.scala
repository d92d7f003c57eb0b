package repro.bench

import org.apache.spark.sql.SparkSession
import repro.embed._
import repro.join.LshEnsemble
import repro.lake.{LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}

/** Accuracy experiments: Tables 3–12 of the paper.
  *
  * All methods share the retrieval protocol of Section 5.1: embedding
  * methods answer from an HNSW index over the repository, LSH Ensemble from
  * its partitioned MinHash structure, and precision@k / NDCG@k are computed
  * against the exact top-k (inverted-list overlap search for equi-joins,
  * PEXESO for semantic joins).
  */
object AccuracyBench {

  val ks: Seq[Int] = Seq(10, 20, 30, 40, 50)
  val kMax: Int = ks.max

  // ------------------------------------------------------------- retrieval

  /** Retrieval memo keys. A pre-trained embedder is keyed by its name, a
    * trained model by itself (`World` memoizes models on their training
    * corpus, so one model is indexed once per corpus). Embedders retrieve
    * at kMax only: `DeepJoin.search` uses one ef for every k <= kMax, so
    * their top-k is a prefix of it. LSH Ensemble's top-k is not (a
    * partition with fewer than k banding candidates is scanned in full).
    */
  private final case class Retrieval(embedder: Any)
  private final case class Lsh(k: Int)

  /** Top-kMax ids per query with a pre-trained embedder, memoized on the corpus. */
  def retrieve(spark: SparkSession, c: World.Corpus, name: String,
               emb: => ColumnEmbedder): Map[Long, Seq[Long]] =
    c.cached(Retrieval(name))(searchAll(spark, c, emb))

  /** Top-kMax ids per query with a model from `World.trainDeepJoin` or
    * `World.trainMlp`, memoized on the corpus.
    */
  def retrieve(spark: SparkSession, c: World.Corpus, model: ColumnEmbedder): Map[Long, Seq[Long]] =
    c.cached(Retrieval(model))(searchAll(spark, c, model))

  private def searchAll(spark: SparkSession, c: World.Corpus, emb: ColumnEmbedder) =
    World.retrieveAll(World.index(spark, c, emb), c.queries, kMax)

  /** LSH Ensemble top-k ids per query, memoized on the corpus. */
  def retrieveLsh(c: World.Corpus, k: Int = kMax): Map[Long, Seq[Long]] =
    c.cached(Lsh(k)) {
      val lsh = LshEnsemble.build(c.repo.map(col => (col.id, col.cells)))
      c.queries.map(q => q.id -> lsh.topK(q.cells, k).map(_._1)).toMap
    }

  // --------------------------------------------------------- method suites

  /** The methods of Table 3 (equi-joins): name -> ranked ids over `c`, with
    * the learned methods trained on `trainOn`; `k` is LSH Ensemble's top-k.
    */
  def equiMethods(spark: SparkSession, trainOn: World.Corpus, c: World.Corpus,
                  k: Int = kMax): Seq[(String, Map[Long, Seq[Long]])] = {
    val ctxCol = new Contextualizer(TextOption.Col, frequency = c.cellFrequency)
    def r(name: String, emb: => ColumnEmbedder) = retrieve(spark, c, name, emb)
    def trained(model: ColumnEmbedder) = retrieve(spark, c, model)
    Seq(
      "LSH Ensemble" -> retrieveLsh(c, k),
      "fastText" -> r("fastText", new FastTextEmbedder()),
      "BERT" -> r("BERT", new PlmEmbedder(PlmConfig.bert, ctxCol)),
      "MPNet" -> r("MPNet", new PlmEmbedder(PlmConfig.mpnet, ctxCol)),
      "TaBERT" -> r("TaBERT", new TabertEmbedder()),
      "MLP" -> trained(World.trainMlp(spark, trainOn)),
      "DeepJoin-DistilBERT" ->
        trained(World.trainDeepJoin(spark, trainOn, Equi, PlmConfig.distilbert)),
      "DeepJoin-MPNet" -> trained(World.trainDeepJoin(spark, trainOn, Equi, PlmConfig.mpnet)),
    )
  }

  /** The methods of Tables 4–6 (semantic joins at threshold τ), trained on
    * `trainOn` and retrieving over `c`; `k` as in [[equiMethods]].
    */
  def semanticMethods(spark: SparkSession, trainOn: World.Corpus, c: World.Corpus,
                      tau: Double, k: Int = kMax): Seq[(String, Map[Long, Seq[Long]])] = {
    def trained(plm: PlmConfig) =
      retrieve(spark, c, World.trainDeepJoin(spark, trainOn, Semantic(tau), plm))
    Seq(
      "LSH Ensemble" -> retrieveLsh(c, k),
      "fastText" -> retrieve(spark, c, "fastText", new FastTextEmbedder()),
      "DeepJoin-DistilBERT" -> trained(PlmConfig.distilbert),
      "DeepJoin-MPNet" -> trained(PlmConfig.mpnet),
    )
  }

  // -------------------------------------------------------------- printing

  /** Print one corpus block of an accuracy table: each retrieval scored
    * against the exact top-kMax, one row per method with its label padded
    * to `width`, then precision@k | NDCG@k for every k in ks.
    */
  private def printBlock(spark: SparkSession, c: World.Corpus, jt: JoinType, title: String,
                         width: Int, rows: Seq[(String, Map[Long, Seq[Long]])]): Unit = {
    val exact = World.exact(spark, c, jt, kMax)
    println(s"-- $title: precision@k | ndcg@k, k=${ks.mkString(",")}")
    rows.foreach { case (label, res) =>
      val m = World.evalRetrieval(c, jt, res, exact, ks)
      val ps = ks.map(k => f"${m(k)._1}%.3f").mkString(" ")
      val ns = ks.map(k => f"${m(k)._2}%.3f").mkString(" ")
      println(s"${label.padTo(width, ' ')} $ps | $ns")
    }
  }

  /** Table 3: equi-join accuracy on both corpora. */
  def table3(spark: SparkSession): Unit = {
    println(s"== Table 3: accuracy of equi-joins (scale: repo=${World.repoN}, " +
      s"train=${World.trainN}, queries=${World.queryN}; paper: 1M/30K/50)")
    Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
      val c = World.corpus(spark, cfg)
      printBlock(spark, c, Equi, s"${cfg.name}, ${Equi.label}", 22, equiMethods(spark, c, c))
    }
  }

  /** Tables 4–6: semantic-join accuracy at τ ∈ {0.9, 0.8, 0.7}. */
  def tables4to6(spark: SparkSession): Unit =
    Seq(0.9, 0.8, 0.7).zip(Seq(4, 5, 6)).foreach { case (tau, t) =>
      println(s"== Table $t: accuracy of semantic joins, tau=$tau " +
        s"(scale: repo=${World.repoN}, train=${World.trainN}, queries=${World.queryN})")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        val jt = Semantic(tau)
        printBlock(spark, c, jt, s"${cfg.name}, ${jt.label}", 22, semanticMethods(spark, c, c, tau))
      }
    }

  // ------------------------------------------------- Table 8 (column size)

  /** Size bands of Table 8 / Table 15. */
  val bands: Seq[(String, Int, Int)] = Seq(("5-10", 5, 10), ("11-50", 11, 50), (">50", 51, Int.MaxValue))

  /** Table 8: accuracy at k=10 per column-size band (Webtable). Each band is
    * a corpus of its own (repository and queries in the band); the learned
    * methods are the ones trained on the full Webtable corpus.
    */
  def table8(spark: SparkSession): Unit = {
    val cfg = LakeConfig.webtable()
    val full = World.corpus(spark, cfg)
    val k = 10
    val tau = 0.9
    val nPerBand = math.max(600, World.repoN / 3)
    println(s"== Table 8: accuracy vs column size, webtable, k=$k " +
      s"(repo=$nPerBand per band; paper: grouped 1M)")
    bands.zipWithIndex.foreach { case ((label, lo, hi), bi) =>
      val hiCap = if (hi == Int.MaxValue) cfg.maxCells else hi
      val repoDs = LakeGenerator.columnsInSizeBand(spark, cfg, nPerBand, lo, hiCap,
        salt = 0x8a0L + bi).cache()
      val band = World.Corpus(cfg, repoDs.collect().toSeq.sortBy(_.id), full.train,
        LakeGenerator.queriesInSizeBandLocal(cfg, World.queryN, lo, hiCap), repoDs, full.trainDs)
      def block(title: String, jt: JoinType,
                methods: Seq[(String, Map[Long, Seq[Long]])]): Unit = {
        val exact = World.exact(spark, band, jt, k)
        println(s"-- $title, |X| = $label")
        methods.foreach { case (name, res) =>
          val (p, n) = World.evalRetrieval(band, jt, res, exact, Seq(k))(k)
          println(f"$name%-22s P@$k=$p%.3f NDCG@$k=$n%.3f")
        }
      }
      block("equi", Equi, equiMethods(spark, full, band, k))
      block(s"semantic (tau=$tau)", Semantic(tau), semanticMethods(spark, full, band, tau, k))
      repoDs.unpersist()
    }
  }

  // --------------------------------------------- Tables 9-10 (text options)

  /** Tables 9–10: contextualization ablation with DeepJoin-MPNet. */
  def tables9to10(spark: SparkSession): Unit =
    Seq[(JoinType, Int)]((Equi, 9), (Semantic(0.9), 10)).foreach { case (jt, t) =>
      println(s"== Table $t: column-to-text transformation, ${jt.label}, DeepJoin-MPNet")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        printBlock(spark, c, jt, cfg.name, 26, TextOption.all.map { opt =>
          opt.name -> retrieve(spark, c, World.trainDeepJoin(spark, c, jt, PlmConfig.mpnet, opt))
        })
      }
    }

  // --------------------------------------------- Tables 11-12 (cell shuffle)

  val shuffleRates: Seq[Double] = Seq(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

  /** Tables 11–12: cell-shuffle (data augmentation) ablation, DeepJoin-MPNet. */
  def tables11to12(spark: SparkSession): Unit =
    Seq[(JoinType, Int)]((Equi, 11), (Semantic(0.9), 12)).foreach { case (jt, t) =>
      println(s"== Table $t: cell shuffle ablation, ${jt.label}, DeepJoin-MPNet")
      Seq(LakeConfig.webtable(), LakeConfig.wikitable()).foreach { cfg =>
        val c = World.corpus(spark, cfg)
        printBlock(spark, c, jt, cfg.name, 26, shuffleRates.map { rate =>
          f"rate=$rate%.1f" -> retrieve(spark, c, World.trainDeepJoin(spark, c, jt,
            PlmConfig.mpnet, TextOption.default, shuffleRate = rate))
        })
      }
    }
}
