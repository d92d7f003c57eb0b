package repro.bench

import repro.SparkSpec
import repro.embed.{FastTextEmbedder, PlmConfig}
import repro.join.{Joinability, Pexeso}
import repro.lake.{LakeConfig, LakeGenerator}

/** End-to-end pipeline integration at toy scale: corpus → labels → training
  * → index → retrieval → metrics. The bench suites run the full-scale
  * versions; this guards the plumbing in the unit-test run.
  */
class WorldIntegrationSpec extends SparkSpec {
  private val cfg = LakeConfig.webtable(seed = 99L)
  private lazy val c = World.corpus(spark, cfg, nRepo = 400, nTrain = 200, nQuery = 5)

  test("corpus has disjoint repo/train/query id spaces") {
    val repoIds = c.repo.map(_.id).toSet
    val trainIds = c.train.map(_.id).toSet
    val qIds = c.queries.map(_.id).toSet
    assert(repoIds.intersect(trainIds).isEmpty)
    assert(repoIds.intersect(qIds).isEmpty)
  }
  test("cell frequency counts columns containing each value") {
    val v = c.repo.head.cells.head
    val expected = c.repo.count(_.cells.contains(v))
    assert(c.cellFrequency(v) == expected)
  }
  test("exact equi ground truth is populated and correctly ordered") {
    val ex = World.exact(spark, c, Equi, 10)
    assert(ex.nonEmpty)
    ex.values.foreach { ranked =>
      val jns = ranked.map(_._2)
      assert(jns == jns.sorted.reverse)
    }
  }
  test("exact semantic ground truth is populated") {
    val ex = World.exact(spark, c, Semantic(0.9), 10)
    assert(ex.values.exists(_.nonEmpty))
  }
  test("equi positives exist at the paper's threshold") {
    assert(World.positives(spark, c, Equi).nonEmpty)
  }
  test("trainDeepJoin produces a working fine-tuned embedder") {
    val dj = World.trainDeepJoin(spark, c, Equi, PlmConfig.distilbert)
    assert(dj.head.isDefined)
    val v = dj.embed(c.queries.head)
    assert(v.length == dj.dim)
  }
  test("retrieval + evaluation produces sane precision for fastText") {
    val idx = World.index(spark, c, new FastTextEmbedder())
    val res = World.retrieveAll(idx, c.queries, 10)
    val ex = World.exact(spark, c, Equi, 10)
    val m = World.evalRetrieval(c, Equi, res, ex, Seq(10))
    val (p, n) = m(10)
    assert(p >= 0.0 && p <= 1.0)
    assert(n >= 0.0 && n <= 1.5) // model NDCG can slightly exceed 1 on ties
  }
  test("jnLookup agrees with direct computation (equi)") {
    val look = World.jnLookup(c, Equi)
    val q = c.queries.head
    val x = c.repo.head
    assert(look(q, x.id) == repro.join.Joinability.equiJn(q.cells, x.cells))
  }
  test("defaultShuffleRate matches the paper's best settings") {
    assert(World.defaultShuffleRate("webtable", Equi) == 0.2)
    assert(World.defaultShuffleRate("webtable", Semantic(0.9)) == 0.3)
    assert(World.defaultShuffleRate("wikitable", Equi) == 0.3)
    assert(World.defaultShuffleRate("wikitable", Semantic(0.9)) == 0.4)
  }
  // Two corpora that share a name and sizes but not a seed (the case a
  // memo keyed by corpus name cannot tell apart).
  private def seeded(seed: Long): World.Corpus =
    World.corpus(spark, LakeConfig.webtable(seed = seed), nRepo = 300, nTrain = 200, nQuery = 3)

  test("corpora of different seeds at equal sizes are distinct, each from its own config") {
    val (c1, c2) = (seeded(1L), seeded(2L))
    assert(c1.cfg.seed == 1L && c2.cfg.seed == 2L)
    assert(!(c1.repo eq c2.repo), "both seeds returned one corpus")
    Seq(c1, c2).foreach { c =>
      val own = c.repo == LakeGenerator.columns(spark, c.cfg, c.repo.size).collect().toSeq.sortBy(_.id)
      assert(own, s"repository of seed ${c.cfg.seed} is not generated from its config")
    }
  }
  test("a directly built band corpus gets labels from its own repository") {
    val other = seeded(1L)
    World.exact(spark, other, Equi, 10)
    World.exact(spark, other, Semantic(0.9), 10)
    val cfg2 = LakeConfig.webtable(seed = 2L)
    val repoDs = LakeGenerator.columnsInSizeBand(spark, cfg2, other.repo.size, 5, 10,
      salt = 0x8a0L).cache()
    val band = World.Corpus(cfg2, repoDs.collect().toSeq.sortBy(_.id), other.train,
      LakeGenerator.queriesInSizeBandLocal(cfg2, other.queries.size, 5, 10), repoDs, other.trainDs)
    assert(band.repo.size == other.repo.size)

    val px = Pexeso.build(band.repo.map(col => (col.id, col.cells)))
    val sem = World.exact(spark, band, Semantic(0.9), 10)
    assert(sem.keySet == band.queries.map(_.id).toSet)
    assert(sem.values.exists(_.nonEmpty))
    band.queries.foreach(q => assert(sem(q.id) == px.topK(q.cells, 0.9, 10)))

    import spark.implicits._
    val equi = World.exact(spark, band, Equi, 10)
    assert(equi.values.exists(_.nonEmpty))
    assert(equi == Joinability.equiTopKMap(spark, spark.createDataset(band.queries), repoDs, 10))
    repoDs.unpersist()
  }
  test("entity joinability ('expert' truth) is within [0, 1] and symmetric bounds") {
    val q = c.queries.head
    c.repo.take(20).foreach { x =>
      val jn = StatsAndExpertBench.entityJn(q, x)
      assert(jn >= 0.0 && jn <= 1.0)
    }
  }
}
