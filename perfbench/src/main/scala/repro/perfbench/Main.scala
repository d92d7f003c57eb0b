package repro.perfbench

import repro.bench.JobSession

/** Benchmark entry point; `perfbench/run.py` builds the classpath and calls it.
  *
  *   Main --workload dj-query|ann-query|baselines --seed N --seconds S
  *        --trace 0|1 [--out DIR] [--sha SHA] [--source-hash HASH]
  *
  * Prints the run manifest and every metric by name and unit, then, as the
  * last line of standard output, one JSON object with the keys `correct`,
  * `attempted`, `failed` and `metrics`. With `--out`, the manifest, metrics,
  * sample counts and failures go to `DIR/<workload>-seed<N>-trace<T>.json`,
  * and the traced run's spans to a `.spans.jsonl` file beside it.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = opts.getOrElse("workload", usage("--workload is required"))
    if (!Workloads.names.contains(workload)) usage(s"unknown workload $workload")
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0)
      .getOrElse(usage("--seconds must be a positive number"))
    val trace = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _ => usage("--trace must be 0 or 1")
    }
    val p = Params(workload, seed, seconds, trace, Workloads.defaultSizes(workload))

    val spark = JobSession.create("perfbench")
    val o =
      try Workloads.run(p, spark)
      finally spark.stop()
    o.manifest ++= Harness.jvmManifest()
    o.manifest("git_sha") = opts.getOrElse("sha", "unknown")
    o.manifest("source_hash") = opts.getOrElse("source-hash", "unknown")

    val values = Report.values(o, trace)
    Report.print(o, values)
    opts.get("out").foreach { dir =>
      val d = java.nio.file.Paths.get(dir)
      java.nio.file.Files.createDirectories(d)
      val stem = s"$workload-seed$seed-trace${if (trace) 1 else 0}"
      java.nio.file.Files.write(d.resolve(s"$stem.json"),
        Report.fullJson(o, values).getBytes("UTF-8"))
      o.tracer.foreach(_.write(d.resolve(s"$stem.spans.jsonl")))
    }
    println(Report.result(o, values))
    System.out.flush()
    sys.exit(0)
  }

  private def parse(args: Array[String]): Map[String, String] = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    args.grouped(2).map { case Array(k, v) =>
      if (!k.startsWith("--")) usage(s"unexpected argument $k")
      k.drop(2) -> v
    }.toMap
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    Console.err.println("usage: --workload dj-query|ann-query|baselines --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }
}

/** Result formatting. */
object Report {

  /** The catalogue's metrics for the mode; a missing or non-finite value is
    * a failed operation. Call once per run.
    */
  def values(o: Outcome, trace: Boolean): Seq[(Catalog.Metric, Double)] =
    Catalog.forTrace(trace).map { m =>
      o.metrics.get(m.name) match {
        case Some(v) if !v.isNaN && !v.isInfinite => m -> v
        case Some(v) =>
          o.check(ok = false, s"${m.name} is $v")
          m -> 0.0
        case None =>
          // A per-layer metric of a layer this workload does not call.
          if (!trace) o.check(ok = false, s"${m.name} was not measured")
          m -> 0.0
      }
    }

  def result(o: Outcome, values: Seq[(Catalog.Metric, Double)]): String = {
    val ms = values.map { case (m, v) =>
      s""""${m.name}":{"value":${num(v)},"unit":"${m.unit}"}"""
    }
    s"""{"correct":${o.failed == 0},"attempted":${math.max(1L, o.attempted)},""" +
      s""""failed":${o.failed},"metrics":{${ms.mkString(",")}}}"""
  }

  def print(o: Outcome, values: Seq[(Catalog.Metric, Double)]): Unit = {
    println(s"# manifest ${json(o.manifest)}")
    values.foreach { case (m, v) =>
      val n = o.samples.get(m.name).map(c => s"  (n=$c)").getOrElse("")
      println(f"# ${m.name}%-28s ${num(v)}%-24s ${m.unit}$n")
    }
    println(s"# operations attempted=${o.attempted} failed=${o.failed}")
    o.failures.foreach(f => println(s"# FAILED: $f"))
  }

  def fullJson(o: Outcome, values: Seq[(Catalog.Metric, Double)]): String = json(Map(
    "manifest" -> o.manifest,
    "metrics" -> values.map { case (m, v) => m.name -> Map("value" -> v, "unit" -> m.unit) }.toMap,
    "all_measured" -> o.metrics,
    "samples" -> o.samples,
    "attempted" -> o.attempted,
    "failed" -> o.failed,
    "failures" -> o.failures.toSeq))

  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  def json(x: Any): String = x match {
    case null | None => "null"
    case Some(v) => json(v)
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""
        case '\\' => "\\\\"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c => c.toString
      } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else num(d)
    case f: Float => json(f.toDouble)
    case n: Number => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, v) => json(k.toString) + ":" + json(v) }.mkString("{", ",", "}")
    case it: Iterable[_] => it.map(json).mkString("[", ",", "]")
    case other => json(other.toString)
  }
}
