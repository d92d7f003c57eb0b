package repro.ann

import repro.embed.VecOps
import scala.collection.mutable

/** Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2020) —
  * the paper's ANN index (Section 3.3), implemented from scratch.
  *
  * Multi-layer proximity graph over Euclidean space. Insertion draws a level
  * from a geometric distribution, descends greedily through the upper
  * layers, then runs a beam search of width `efConstruction` on each layer at
  * or below the node's level and links the `m` closest results (level 0
  * allows `2m` links). Search descends greedily to layer 0 and runs a beam
  * of width `ef` there. Search cost is logarithmic in the index size, which
  * is what gives DeepJoin its sub-linear search time.
  *
  * Not thread-safe during construction; search is read-only and thread-safe
  * after construction.
  */
final class Hnsw(
    val dim: Int,
    val m: Int = 16,
    val efConstruction: Int = 200,
    seed: Long = 42L) extends Serializable {

  private val mMax0 = 2 * m
  private val levelMult = 1.0 / math.log(m.toDouble)
  private val rnd = new java.util.Random(seed)

  private val vecs = mutable.ArrayBuffer.empty[Array[Float]]
  private val nodeLevel = mutable.ArrayBuffer.empty[Int]
  // links(node)(level) = growable neighbor list
  private val links = mutable.ArrayBuffer.empty[Array[mutable.ArrayBuffer[Int]]]
  private var entry: Int = -1
  private var topLevel: Int = -1

  def size: Int = vecs.length
  def vector(i: Int): Array[Float] = vecs(i)

  /** Neighbor list of a node on a level (diagnostics/tests). */
  def neighbors(node: Int, level: Int): Array[Int] =
    if (level > nodeLevel(node)) Array.empty else links(node)(level).toArray

  /** Insert a vector; its id is the insertion index. Returns the id. */
  def add(v: Array[Float]): Int = {
    require(v.length == dim, s"dim mismatch: ${v.length} != $dim")
    val id = vecs.length
    val lvl = drawLevel()
    vecs += v
    nodeLevel += lvl
    links += Array.fill(lvl + 1)(mutable.ArrayBuffer.empty[Int])

    if (entry < 0) { entry = id; topLevel = lvl; return id }

    var ep = entry
    // Greedy descent through layers above the new node's level.
    var l = topLevel
    while (l > lvl) { ep = greedyClosest(v, ep, l); l -= 1 }
    // Beam search + linking on layers min(lvl, topLevel)..0.
    l = math.min(lvl, topLevel)
    while (l >= 0) {
      val cands = searchLayer(v, Seq(ep), efConstruction, l)
      val selected = selectNeighbors(cands, m)
      val lst = links(id)(l)
      selected.foreach { case (nid, _) => lst += nid }
      val cap = if (l == 0) mMax0 else m
      selected.foreach { case (nid, _) =>
        val nl = links(nid)(l)
        nl += id
        if (nl.length > cap) shrink(nid, l, cap)
      }
      if (cands.nonEmpty) ep = cands.head._1
      l -= 1
    }
    if (lvl > topLevel) { topLevel = lvl; entry = id }
    id
  }

  /** kNN by Euclidean distance; `ef >= k` controls recall. */
  def search(q: Array[Float], k: Int, ef: Int = 64): Array[(Int, Float)] = {
    if (entry < 0) return Array.empty
    var ep = entry
    var l = topLevel
    while (l > 0) { ep = greedyClosest(q, ep, l); l -= 1 }
    val res = searchLayer(q, Seq(ep), math.max(ef, k), 0)
    res.take(math.min(k, res.length)).toArray
  }

  private def drawLevel(): Int = {
    val u = rnd.nextDouble()
    math.min(31, (-math.log(u + 1e-12) * levelMult).toInt)
  }

  /** Greedy walk to the locally closest node on `level`. */
  private def greedyClosest(q: Array[Float], start: Int, level: Int): Int = {
    var cur = start
    var curD = VecOps.l2(q, vecs(cur))
    var improved = true
    while (improved) {
      improved = false
      val ns = links(cur)(level)
      var i = 0
      while (i < ns.length) {
        val d = VecOps.l2(q, vecs(ns(i)))
        if (d < curD) { curD = d; cur = ns(i); improved = true }
        i += 1
      }
    }
    cur
  }

  /** Beam search of width `ef` on `level`; results sorted by distance asc. */
  private def searchLayer(q: Array[Float], eps: Seq[Int], ef: Int,
                          level: Int): Seq[(Int, Float)] = {
    val visited = new java.util.HashSet[Integer]()
    // candidates: min-heap by distance; results: max-heap by distance
    val cand = new java.util.PriorityQueue[(Int, Float)](
      (a: (Int, Float), b: (Int, Float)) => java.lang.Float.compare(a._2, b._2))
    val res = new java.util.PriorityQueue[(Int, Float)](
      (a: (Int, Float), b: (Int, Float)) => java.lang.Float.compare(b._2, a._2))
    eps.foreach { ep =>
      if (visited.add(ep)) {
        val d = VecOps.l2(q, vecs(ep))
        cand.add((ep, d)); res.add((ep, d))
      }
    }
    while (!cand.isEmpty) {
      val (c, cd) = cand.poll()
      if (res.size >= ef && cd > res.peek()._2) {
        cand.clear() // nothing closer can be found
      } else {
        val ns = links(c)(level)
        var i = 0
        while (i < ns.length) {
          val nid = ns(i)
          if (visited.add(nid)) {
            val d = VecOps.l2(q, vecs(nid))
            if (res.size < ef || d < res.peek()._2) {
              cand.add((nid, d)); res.add((nid, d))
              if (res.size > ef) res.poll()
            }
          }
          i += 1
        }
      }
    }
    val out = new Array[(Int, Float)](res.size)
    var j = out.length - 1
    while (j >= 0) { out(j) = res.poll(); j -= 1 }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }

  /** Neighbor-selection heuristic (Algorithm 4 of the HNSW paper): walk the
    * candidates, each paired with its distance to the base element, in
    * ascending distance and keep one only if it is closer to the base than
    * to every already-selected neighbor. This retains long-range links
    * between clusters, which plain closest-M selection destroys (and with
    * it, recall on clustered data).
    */
  private def selectNeighbors(cands: Seq[(Int, Float)], cap: Int): Seq[(Int, Float)] = {
    val result = mutable.ArrayBuffer.empty[(Int, Float)]
    val it = cands.iterator
    while (it.hasNext && result.length < cap) {
      val (e, dq) = it.next()
      var good = true
      var i = 0
      while (good && i < result.length) {
        if (VecOps.l2(vecs(e), vecs(result(i)._1)) < dq) good = false
        i += 1
      }
      if (good) result += ((e, dq))
    }
    result.toSeq
  }

  /** Re-prune a node's neighbor list with the selection heuristic. */
  private def shrink(node: Int, level: Int, cap: Int): Unit = {
    val nl = links(node)(level)
    val v = vecs(node)
    val sorted = nl.distinct.map(nid => (nid, VecOps.l2(v, vecs(nid)))).sortBy(_._2)
    val kept = selectNeighbors(sorted.toSeq, cap)
    nl.clear()
    nl ++= kept.map(_._1)
  }
}
