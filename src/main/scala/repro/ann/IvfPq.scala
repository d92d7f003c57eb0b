package repro.ann

import repro.embed.VecOps
import scala.collection.mutable

/** Inverted file with product quantization (Jégou et al., 2011) — the
  * billion-scale ANN option the paper names alongside HNSW (Section 3.3).
  *
  * A coarse k-means quantizer routes each vector to one of `nlist` inverted
  * lists; the residual (vector minus its centroid) is product-quantized into
  * `mSub` sub-codes of 8 bits each. Search probes the `nprobe` nearest lists
  * and scores candidates by asymmetric distance computation (ADC) against a
  * per-list lookup table.
  */
final class IvfPq private (
    dim: Int,
    coarse: KMeans.Model,
    codebooks: Array[Array[Array[Float]]], // [sub][code][subDim]
    lists: Array[mutable.ArrayBuffer[Int]], // list -> vector ids
    codes: Array[Array[Byte]])              // id -> sub-codes
  extends Serializable {

  private val mSub = codebooks.length
  private val subDim = dim / mSub

  def size: Int = codes.length
  def nlist: Int = coarse.k

  /** Approximate kNN via ADC over the `nprobe` closest inverted lists. */
  def search(q: Array[Float], k: Int, nprobe: Int = 8): Array[(Int, Float)] = {
    val probes = coarse.nearest(q, nprobe)
    val heap = new java.util.PriorityQueue[(Int, Float)](math.max(1, k),
      (a: (Int, Float), b: (Int, Float)) => java.lang.Float.compare(b._2, a._2))
    probes.foreach { li =>
      // ADC table for this list: distance from residual of q to each code.
      val cent = coarse.centroids(li)
      val resid = new Array[Float](dim)
      var i = 0
      while (i < dim) { resid(i) = q(i) - cent(i); i += 1 }
      val table = Array.ofDim[Float](mSub, 256)
      var s = 0
      while (s < mSub) {
        val cb = codebooks(s)
        val off = s * subDim
        var c = 0
        while (c < cb.length) {
          var d = 0.0f
          var j = 0
          while (j < subDim) { val t = resid(off + j) - cb(c)(j); d += t * t; j += 1 }
          table(s)(c) = d
          c += 1
        }
        s += 1
      }
      val lst = lists(li)
      var p = 0
      while (p < lst.length) {
        val id = lst(p)
        val code = codes(id)
        var d = 0.0f
        var s2 = 0
        while (s2 < mSub) { d += table(s2)(code(s2) & 0xff); s2 += 1 }
        val dist = math.sqrt(d.toDouble).toFloat
        if (heap.size < k) heap.add((id, dist))
        else if (dist < heap.peek()._2) { heap.poll(); heap.add((id, dist)) }
        p += 1
      }
    }
    val out = new Array[(Int, Float)](heap.size)
    var j = out.length - 1
    while (j >= 0) { out(j) = heap.poll(); j -= 1 }
    out
  }
}

object IvfPq {

  /** Train coarse + PQ codebooks on `data` and encode all of it. */
  def build(data: IndexedSeq[Array[Float]], nlist: Int = 64, mSub: Int = 8,
            pqBits: Int = 8, seed: Long = 23L): IvfPq = {
    require(data.nonEmpty, "empty data")
    val dim = data.head.length
    require(dim % mSub == 0, s"dim $dim not divisible by mSub $mSub")
    val subDim = dim / mSub
    val nCodes = 1 << pqBits

    val coarse = KMeans.fit(data, math.min(nlist, data.length), iters = 10, seed = seed)
    val listOf = data.map(coarse.assign).toArray

    // Residuals for PQ training.
    val residuals = Array.tabulate(data.length) { i =>
      val r = new Array[Float](dim)
      val c = coarse.centroids(listOf(i))
      var j = 0
      while (j < dim) { r(j) = data(i)(j) - c(j); j += 1 }
      r
    }
    val codebooks = Array.tabulate(mSub) { s =>
      val off = s * subDim
      val sub = residuals.map(r => java.util.Arrays.copyOfRange(r, off, off + subDim))
      KMeans.fit(scala.collection.immutable.ArraySeq.unsafeWrapArray(sub),
        math.min(nCodes, sub.length), iters = 8, seed = seed + s + 1).centroids
    }
    val codes = Array.tabulate(data.length) { i =>
      val code = new Array[Byte](mSub)
      var s = 0
      while (s < mSub) {
        val off = s * subDim
        val sub = java.util.Arrays.copyOfRange(residuals(i), off, off + subDim)
        var best = 0
        var bestD = Float.MaxValue
        var c = 0
        while (c < codebooks(s).length) {
          val d = VecOps.l2Sq(sub, codebooks(s)(c))
          if (d < bestD) { bestD = d; best = c }
          c += 1
        }
        code(s) = best.toByte
        s += 1
      }
      code
    }
    val lists = Array.fill(coarse.k)(mutable.ArrayBuffer.empty[Int])
    listOf.zipWithIndex.foreach { case (li, id) => lists(li) += id }
    new IvfPq(dim, coarse, codebooks, lists, codes)
  }
}
