package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Latency samples in milliseconds. */
final class Lat {
  private val buf = mutable.ArrayBuffer.empty[Double]
  def +=(ms: Double): Unit = buf += ms
  def n: Int = buf.length

  /** Nearest-rank percentile, q in (0, 1]. */
  def p(q: Double): Double = {
    require(buf.nonEmpty, "no samples")
    val s = buf.toArray
    java.util.Arrays.sort(s)
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }
}

/** Latency samples (ms) per query of a pool. Percentiles are taken over the
  * queries, of each query's mean latency: a query's cost is set by its
  * input. A shared host's cores switch between a fast and a slow state every
  * second or so; the mean over repeats spread across the run moves in step
  * with the share of time spent slow, where a median jumps from one state to
  * the other as that share crosses one half.
  */
final class PerQuery(queries: Int) {
  private val byQuery = Array.fill(queries)(mutable.ArrayBuffer.empty[Double])

  def time[A](q: Int)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    byQuery(q) += (System.nanoTime() - t0) / 1e6
    a
  }

  def samples: Int = byQuery.map(_.length).sum

  def p(q: Double): Double = {
    val means = new Lat
    byQuery.foreach(xs => if (xs.nonEmpty) means += Harness.mean(xs))
    means.p(q)
  }
}

/** What one run produced: metrics, operation counts, failures, manifest. */
final class Outcome {
  val metrics = mutable.LinkedHashMap.empty[String, Double]
  /** Sample count behind each timing, for the printed report. */
  val samples = mutable.LinkedHashMap.empty[String, Int]
  val manifest = mutable.LinkedHashMap.empty[String, Any]
  val failures = mutable.ArrayBuffer.empty[String]
  /** The traced run's spans. */
  var tracer: Option[Tracer] = None
  var attempted = 0L
  var failed = 0L

  /** Count one checked operation; a false `ok` is a failure. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failures.length < 20) failures += what
    }
  }

  def put(name: String, v: Double): Unit = metrics(name) = v

  def putLat(name: String, lat: Lat, q: Double, scale: Double = 1.0): Unit = {
    metrics(name) = lat.p(q) * scale
    samples(name) = lat.n
  }

  def putQ(name: String, lat: PerQuery, q: Double): Unit = {
    metrics(name) = lat.p(q)
    samples(name) = lat.samples
  }
}

object Harness {

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Time `f` in seconds. */
  def timeS[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, seconds(t0))
  }

  /** Time `f` into `lat` (ms). */
  def timed[A](lat: Lat)(f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    lat += (System.nanoTime() - t0) / 1e6
    a
  }

  /** Closed loop: call `body(i)` for i = 0, 1, ... until `secs` have passed;
    * each call starts only after the previous one returned. Returns the
    * number of calls.
    */
  def loop(secs: Double)(body: Int => Unit): Int = {
    val end = System.nanoTime() + (secs * 1e9).toLong
    var i = 0
    while (System.nanoTime() < end) { body(i); i += 1 }
    i
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  // ------------------------------------------------------------------ JVM

  /** (collections, collection ms) summed over all collectors. */
  def gcTotals(): (Long, Long) =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foldLeft((0L, 0L)) {
      case ((c, t), b) => (c + math.max(0L, b.getCollectionCount), t + math.max(0L, b.getCollectionTime))
    }

  /** Heap in use after a full collection: the lowest of three readings,
    * since objects that Spark's threads hold for a moment only add to it.
    */
  def usedAfterGc(): Long =
    (1 to 3).map { _ =>
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }.min

  private lazy val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** KB allocated by the calling thread per call of `f`, averaged over `xs`:
    * the lowest of three passes, so a pass that still ran some code
    * interpreted, without escape analysis, does not count.
    */
  def allocKbPer[A](xs: Seq[A])(f: A => Any): Double =
    (1 to 3).map { _ =>
      val a0 = allocated()
      xs.foreach(f)
      (allocated() - a0) / 1024.0 / xs.size
    }.min

  def jvmManifest(): Seq[(String, Any)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "xmx" -> rt.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption.getOrElse("default"),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20))
  }
}

/** In-memory spans recorded by the benchmark around the public calls it
  * makes. Spans of one query share `qid`; `parent` is the index of the
  * enclosing span or -1.
  */
final class Tracer {
  final class Span(val qid: Long, val name: String, val parent: Int, val start: Long) {
    var end: Long = 0L
    def ms: Double = (end - start) / 1e6
  }

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[A](qid: Long, name: String)(f: => A): A = {
    val idx = spans.length
    spans += new Span(qid, name, open.headOption.getOrElse(-1), System.nanoTime())
    open = idx :: open
    try f
    finally {
      open = open.tail
      spans(idx).end = System.nanoTime()
    }
  }

  def count: Int = spans.length

  def lat(name: String): Lat = {
    val l = new Lat
    spans.foreach(s => if (s.name == name) l += s.ms)
    l
  }

  def totalMs(name: String): Double = spans.iterator.filter(_.name == name).map(_.ms).sum

  /** Per root span named `root`: its duration minus what its children cover. */
  def uncovered(root: String): Lat = {
    val childMs = new Array[Double](spans.length)
    spans.foreach(s => if (s.parent >= 0) childMs(s.parent) += s.ms)
    val l = new Lat
    spans.indices.foreach { i =>
      val s = spans(i)
      if (s.name == root && s.parent < 0) l += s.ms - childMs(i)
    }
    l
  }

  /** One line per span: qid, name, parent, start and end in ns. */
  def write(path: java.nio.file.Path): Unit = {
    val sb = new StringBuilder
    spans.foreach { s =>
      sb.append(s"""{"qid":${s.qid},"name":"${s.name}","parent":${s.parent},"start_ns":${s.start},"end_ns":${s.end}}""")
      sb.append('\n')
    }
    java.nio.file.Files.write(path, sb.toString.getBytes("UTF-8"))
  }
}

/** Correctness checks on result lists. */
object Checks {

  /** A ranked list: between `atLeast` and `atMost` results, distinct ids,
    * and scores in order (ascending distance or descending joinability).
    */
  def ranked[S](res: Seq[(Long, S)], atLeast: Int, atMost: Int, ascending: Boolean)
               (implicit ord: Ordering[S]): Boolean = {
    val ids = res.map(_._1)
    val scores = res.map(_._2)
    val inOrder = scores.zip(scores.drop(1)).forall { case (a, b) =>
      if (ascending) ord.lteq(a, b) else ord.gteq(a, b)
    }
    res.length >= atLeast && res.length <= atMost &&
      ids.distinct.length == ids.length && inOrder
  }

  /** Top-k by descending joinability, ties by id, zero joinability dropped —
    * the brute-force answer JOSIE and PEXESO must reproduce.
    */
  def bruteTopK(scored: Seq[(Long, Double)], k: Int): Seq[(Long, Double)] =
    scored.filter(_._2 > 0).sortBy { case (id, jn) => (-jn, id) }.take(k)

  def sameTopK(a: Seq[(Long, Double)], b: Seq[(Long, Double)]): Boolean =
    a.map(_._1) == b.map(_._1) &&
      a.zip(b).forall { case (x, y) => math.abs(x._2 - y._2) <= 1e-9 }
}
