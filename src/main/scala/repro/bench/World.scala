package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DeepJoin, DeepJoinIndex}
import repro.embed._
import repro.join.{Joinability, Pexeso}
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption}
import repro.train.{MlpBaseline, Trainer, TrainingData}
import scala.collection.concurrent.TrieMap
import scala.collection.parallel.CollectionConverters._

/** Which joinability definition an experiment targets. */
sealed trait JoinType { def label: String }
case object Equi extends JoinType { val label = "equi" }
final case class Semantic(tau: Double) extends JoinType {
  def label = f"semantic-tau$tau%.1f"
}

/** Shared experiment world for the benches: corpora, exact ground truth,
  * trained models and retrieval evaluation, memoized so that the per-table
  * suites reuse one another's work.
  *
  * There are two memos. [[corpus]] is keyed by the whole [[LakeConfig]] and
  * the three sizes. Everything derived from a corpus (exact labels,
  * positives, fine-tuned models, retrievals) is memoized on that
  * [[Corpus]] instance by [[Corpus.cached]], keyed only by what else the
  * value depends on: `Exact(jt, k)`, `Positives(jt)`, `Model(jt, plm,
  * option, rate)` and `Mlp` here, `Retrieval(embedder)` and `Lsh(k)` in
  * [[AccuracyBench]] (a trained model is its own retrieval key). A corpus
  * built directly (Table 8's size bands) thus never shares an entry with
  * another corpus of the same name and size.
  *
  * Default sizes are the paper's scaled by ~1/170 for the accuracy corpora
  * (train 30K→1.2K, repository 1M→6K, 50→25 queries); `BENCH_SCALE`
  * multiplies them. Every bench prints the scale it ran at.
  */
object World {

  val scale: Double = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble
  def trainN: Int = math.max(200, (1200 * scale).toInt)
  def repoN: Int = math.max(1000, (6000 * scale).toInt)
  def queryN: Int = math.max(10, (25 * scale).toInt)

  /** Positive-pair threshold t (Section 5.1). */
  val posThreshold = 0.7

  /** A corpus: repository (search target), training subset, query workload.
    * The training subset and the repository are disjoint id ranges of the
    * same generative process; queries use a salted id stream (no leakage),
    * mirroring the paper's sampling protocol.
    */
  final case class Corpus(
      cfg: LakeConfig,
      repo: Seq[LakeColumn],
      train: Seq[LakeColumn],
      queries: Seq[LakeColumn],
      repoDs: Dataset[LakeColumn],
      trainDs: Dataset[LakeColumn]) {
    lazy val repoById: Map[Long, LakeColumn] = repo.map(c => c.id -> c).toMap
    lazy val cellFrequency: Map[String, Long] = {
      val m = new java.util.HashMap[String, Long]()
      repo.foreach(_.cells.distinct.foreach(c => m.merge(c, 1L, _ + _)))
      import scala.jdk.CollectionConverters._
      m.asScala.toMap
    }
    /** The PEXESO index over the repository (shared across τ). */
    lazy val pexeso: Pexeso = Pexeso.build(repo.map(col => (col.id, col.cells)))

    private val memo = TrieMap.empty[Product, Any]

    /** `value`, computed once per corpus and key; each key class must
      * always map to values of one type.
      */
    private[bench] def cached[A](key: Product)(value: => A): A =
      memo.getOrElseUpdate(key, value).asInstanceOf[A]
  }

  private val corpora = TrieMap.empty[(LakeConfig, Int, Int, Int), Corpus]

  def corpus(spark: SparkSession, cfg: LakeConfig,
             nRepo: Int = repoN, nTrain: Int = trainN,
             nQuery: Int = queryN): Corpus =
    corpora.getOrElseUpdate((cfg, nRepo, nTrain, nQuery), {
      val repoDs = LakeGenerator.columns(spark, cfg, nRepo).cache()
      val trainDs = LakeGenerator.columns(spark, cfg, nTrain, idOffset = 500000000L).cache()
      val repo = repoDs.collect().toSeq.sortBy(_.id)
      val train = trainDs.collect().toSeq.sortBy(_.id)
      val queries = LakeGenerator.queriesLocal(cfg, nQuery)
      Corpus(cfg, repo, train, queries, repoDs, trainDs)
    })

  // ---------------------------------------------------------------- labels

  private final case class Exact(jt: JoinType, k: Int)

  /** Exact top-k per query: the Spark inverted-list job for equi-joins,
    * PEXESO (data-parallel over queries) for semantic joins.
    */
  def exact(spark: SparkSession, c: Corpus, jt: JoinType,
            k: Int): Map[Long, Seq[(Long, Double)]] =
    c.cached(Exact(jt, k))(jt match {
      case Equi =>
        import spark.implicits._
        Joinability.equiTopKMap(spark, spark.createDataset(c.queries), c.repoDs, k)
      case Semantic(tau) =>
        val px = c.pexeso
        c.queries.par.map(q => q.id -> px.topK(q.cells, tau, k)).seq.toMap
    })

  /** True joinability of (query, column) under the join type. */
  def jnLookup(c: Corpus, jt: JoinType): (LakeColumn, Long) => Double = jt match {
    case Equi =>
      (q, id) => c.repoById.get(id)
        .map(x => Joinability.equiJn(q.cells, x.cells)).getOrElse(0.0)
    case Semantic(tau) =>
      val px = c.pexeso
      (q, id) => px.jnOf(q.cells, tau, id)
  }

  // ------------------------------------------------------------- training

  private final case class Positives(jt: JoinType)

  /** Positive pairs in the corpus's training subset under the join type. */
  def positives(spark: SparkSession, c: Corpus, jt: JoinType): Seq[TrainingData.Pair] =
    c.cached(Positives(jt))(jt match {
      case Equi => TrainingData.equiPositives(spark, c.trainDs, posThreshold)
      case Semantic(tau) =>
        TrainingData.semanticPositives(spark, c.train, tau, posThreshold)
    })

  /** The paper's best shuffle rates (Tables 11–12). */
  def defaultShuffleRate(corpusName: String, jt: JoinType): Double =
    (corpusName, jt) match {
      case ("webtable", Equi) => 0.2
      case ("webtable", _) => 0.3
      case ("wikitable", Equi) => 0.3
      case _ => 0.4
    }

  /** Cap on training pairs, to keep ablation sweeps tractable. */
  val maxTrainPairs = 20000

  /** DeepJoin's fine-tuning schedule (Section 4.2; DESIGN.md §1b.2): MNR
    * loss with scale 20, two epochs, the last one batched group-first.
    */
  private val trainConfig: Trainer.Config =
    Trainer.Config(epochs = 2, lr = 2e-3, scale = 20.0, hardNegativeFrac = 0.25)

  /** What a fine-tuned model depends on besides its corpus and the fixed
    * schedule.
    */
  private final case class Model(jt: JoinType, plm: PlmConfig, option: TextOption,
                                 rate: Double)

  /** Fine-tune a DeepJoin model: featurize (Spark), augment, train head. */
  def trainDeepJoin(spark: SparkSession, c: Corpus, jt: JoinType,
                    plm: PlmConfig,
                    option: TextOption = TextOption.default,
                    shuffleRate: Double = -1.0): PlmEmbedder = {
    val rate = if (shuffleRate >= 0) shuffleRate else defaultShuffleRate(c.cfg.name, jt)
    c.cached(Model(jt, plm, option, rate))(fineTune(spark, c, jt, plm, option, rate))
  }

  private def fineTune(spark: SparkSession, c: Corpus, jt: JoinType,
                       plm: PlmConfig, option: TextOption,
                       rate: Double): PlmEmbedder = {
    // DeepJoin's fine-tuned encoder pools cells idf-weighted (the paper's
    // "attention focuses on the cells more probable to match"); raw PLM
    // baselines do not (their pre-training never saw the repository).
    val ctx = new Contextualizer(option, frequency = c.cellFrequency)
    val base = new PlmEmbedder(plm, ctx, head = None, idfPooling = true)

    val pos0 = positives(spark, c, jt)
    val pos =
      if (pos0.size <= maxTrainPairs) pos0
      else {
        val r = new scala.util.Random(0xca11L)
        r.shuffle(pos0.toVector).take(maxTrainPairs)
      }
    val augmented = TrainingData.augment(pos, rate, seed = 0x5fffL)

    // Featurize every distinct column (including shuffled copies) on Spark.
    import spark.implicits._
    val originals = c.train
    val shuffledXs = augmented.drop(pos.size).map(_.x)
    val toEncode: Seq[(Long, LakeColumn)] =
      originals.map(col => (col.id, col)) ++
        shuffledXs.zipWithIndex.map { case (col, i) => (-(i + 1L), col) }
    val feats: Map[Long, Array[Float]] =
      spark.createDataset(toEncode)
        .repartition(spark.sparkContext.defaultParallelism * 2)
        .mapPartitions(_.map { case (key, col) => (key, base.baseFeatures(col)) })
        .collect()
        .toMap

    val cfg = trainConfig.copy(seed = Words.mixSeed(c.cfg.name, jt.label, option.name, rate))
    // Masking uses the original x id even for shuffled copies (the
    // shuffled column has the same joinability structure as its source).
    val knownPos: Set[(Long, Long)] = pos0.map(p => (p.x.id, p.y.id)).toSet
    val examples = augmented.zipWithIndex.map { case (p, i) =>
      val xKey = if (i < pos.size) p.x.id else -(i - pos.size + 1L)
      Trainer.Example(feats(xKey), feats(p.y.id), p.x.id, p.y.id, p.x.domain)
    }.toIndexedSeq
    val (head, losses) = Trainer.train(examples, base.cfg.dim, cfg, knownPositives = knownPos)
    val byEpoch = losses.zipWithIndex.map { case (l, e) =>
      f"${if (cfg.isHardEpoch(e)) "hard" else "easy"}:$l%.3f"
    }
    Console.err.println(
      f"[train] ${plm.name} ${c.cfg.name}/${jt.label}/${option.name}/r=$rate%.1f " +
      s"pos=${augmented.size} losses=${byEpoch.mkString(",")}")
    new PlmEmbedder(plm, ctx, Some(head), idfPooling = true)
  }

  private object Words {
    def mixSeed(parts: Any*): Long =
      parts.map(_.toString.hashCode.toLong).foldLeft(0x7a11L)((a, b) => a * 31 + b)
  }

  private case object Mlp

  /** The MLP baseline trained for the corpus (equi tables only). */
  def trainMlp(spark: SparkSession, c: Corpus): MlpBaseline = c.cached(Mlp) {
    val base = new FastTextEmbedder()
    val pos0 = positives(spark, c, Equi)
    val pos = if (pos0.size <= maxTrainPairs) pos0
              else new scala.util.Random(0x3bL).shuffle(pos0.toVector).take(maxTrainPairs)
    MlpBaseline.trainFromPairs(base, pos, c.train,
      (a, b) => Joinability.equiJn(a.cells, b.cells))
  }

  // ------------------------------------------------------------ retrieval

  /** Build an HNSW index for an embedder over the corpus repository. */
  def index(spark: SparkSession, c: Corpus, embedder: ColumnEmbedder): DeepJoinIndex =
    DeepJoin.buildIndex(spark, c.repoDs, embedder)

  /** Retrieve top-k ids for every query. */
  def retrieveAll(idx: DeepJoinIndex, queries: Seq[LakeColumn], k: Int): Map[Long, Seq[Long]] =
    queries.map { q =>
      val (res, _) = DeepJoin.search(idx, q, k)
      q.id -> res.map(_._1)
    }.toMap

  // -------------------------------------------------------------- metrics

  /** Mean precision@k and NDCG@k over queries for a ranked retrieval. */
  def evalRetrieval(c: Corpus, jt: JoinType,
                    model: Map[Long, Seq[Long]],
                    exact: Map[Long, Seq[(Long, Double)]],
                    ks: Seq[Int]): Map[Int, (Double, Double)] = {
    import repro.eval.Metrics
    val lookup = jnLookup(c, jt)
    ks.map { k =>
      val (ps, ns) = c.queries.map { q =>
        val ex = exact.getOrElse(q.id, Seq.empty)
        val exIds = ex.map(_._1)
        val mod = model.getOrElse(q.id, Seq.empty)
        val jnKnown = ex.toMap
        val jnOf = (id: Long) => jnKnown.getOrElse(id, lookup(q, id))
        (Metrics.precisionAtK(mod, exIds, k), Metrics.ndcgAtK(mod, exIds, k, jnOf))
      }.unzip
      k -> (Metrics.mean(ps), Metrics.mean(ns))
    }.toMap
  }
}
