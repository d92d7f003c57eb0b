package repro.perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.JobSession
import scala.jdk.CollectionConverters._

/** Self-tests of the benchmark at tiny sizes: every metric is emitted with
  * the unit BENCHMARK.json declares, and broken result lists are caught.
  */
class PerfBenchSpec extends AnyFunSuite {

  private lazy val spark = JobSession.create("perfbench-selftest")
  private val mapper = new ObjectMapper()

  private lazy val benchmarkJson: JsonNode = {
    val here = new java.io.File(".").getCanonicalFile
    val f = Iterator.iterate(here)(_.getParentFile).takeWhile(_ != null)
      .map(new java.io.File(_, "BENCHMARK.json")).find(_.isFile)
      .getOrElse(fail("BENCHMARK.json not found above the working directory"))
    mapper.readTree(f)
  }

  private def declared(key: String): Seq[(String, String)] =
    benchmarkJson.get(key).elements().asScala
      .map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq

  private def run(workload: String, trace: Boolean): (Outcome, JsonNode) = {
    val o = Workloads.run(Params(workload, seed = 3, seconds = 0.3, trace, Workloads.tiny), spark)
    (o, mapper.readTree(Report.result(o, Report.values(o, trace))))
  }

  test("the metric catalogue matches BENCHMARK.json") {
    assert(declared("end_to_end") == Catalog.endToEnd.map(m => m.name -> m.unit))
    assert(declared("per_layer") == Catalog.perLayer.map(m => m.name -> m.unit))
    val listed = benchmarkJson.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq
    assert(listed.nonEmpty && listed.forall(Workloads.names.contains))
  }

  for (w <- Workloads.names; trace <- Seq(false, true)) {
    test(s"$w, trace=$trace: every metric is emitted with its unit and nothing fails") {
      val (o, res) = run(w, trace)
      assert(res.fieldNames().asScala.toSeq.sorted == Seq("attempted", "correct", "failed", "metrics"))
      assert(o.failures.isEmpty, o.failures.mkString("; "))
      assert(res.get("correct").asBoolean() && res.get("failed").asLong() == 0)
      assert(res.get("attempted").asLong() >= 1)
      val metrics = res.get("metrics")
      val expected = if (trace) declared("per_layer") else declared("end_to_end")
      assert(metrics.fieldNames().asScala.toSeq == expected.map(_._1))
      expected.foreach { case (name, unit) =>
        assert(metrics.get(name).get("unit").asText() == unit, name)
        assert(metrics.get(name).get("value").isNumber, name)
        if (!trace) assert(metrics.get(name).get("value").asDouble() > 0, name)
      }
    }
  }

  test("a corrupted result list trips the correctness check") {
    val good = Seq(3L -> 0.1f, 7L -> 0.2f, 5L -> 0.2f)
    assert(Checks.ranked(good, 3, 3, ascending = true))
    assert(!Checks.ranked(Seq(3L -> 0.1f, 3L -> 0.2f, 5L -> 0.3f), 3, 3, ascending = true), "duplicate id")
    assert(!Checks.ranked(Seq(3L -> 0.3f, 7L -> 0.2f, 5L -> 0.4f), 3, 3, ascending = true), "unsorted")
    assert(!Checks.ranked(good.take(2), 3, 3, ascending = true), "too short")
    assert(!Checks.ranked(Seq(3L -> 0.5, 7L -> 0.9), 0, 10, ascending = false), "joinability ascending")

    val exact = Checks.bruteTopK(Seq(1L -> 0.5, 2L -> 0.9, 3L -> 0.0, 4L -> 0.9), 3)
    assert(exact == Seq(2L -> 0.9, 4L -> 0.9, 1L -> 0.5))
    assert(!Checks.sameTopK(Seq(4L -> 0.9, 2L -> 0.9, 1L -> 0.5), exact), "tie order")
    assert(!Checks.sameTopK(Seq(2L -> 0.9, 4L -> 0.9, 1L -> 0.4), exact), "wrong joinability")

    val o = new Outcome
    o.metrics ++= Catalog.endToEnd.map(_.name -> 1.0)
    o.check(Checks.ranked(Seq(3L -> 0.1f, 3L -> 0.2f), 2, 2, ascending = true), "corrupted")
    val res = mapper.readTree(Report.result(o, Report.values(o, trace = false)))
    assert(!res.get("correct").asBoolean() && res.get("failed").asLong() == 1)
  }

  test("a missing end-to-end metric is a failure") {
    val o = new Outcome
    o.metrics ++= Catalog.endToEnd.drop(1).map(_.name -> 1.0)
    val res = mapper.readTree(Report.result(o, Report.values(o, trace = false)))
    assert(res.get("failed").asLong() == 1)
  }
}
