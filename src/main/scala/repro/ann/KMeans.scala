package repro.ann

import repro.embed.VecOps
import scala.util.Random

/** Plain Lloyd k-means over float vectors — the quantizer substrate for
  * [[IvfPq]]. Deterministic in the seed; empty clusters are re-seeded from
  * the farthest points.
  */
object KMeans {

  final case class Model(centroids: Array[Array[Float]]) {
    def k: Int = centroids.length
    def assign(v: Array[Float]): Int = {
      var best = 0
      var bestD = Float.MaxValue
      var i = 0
      while (i < centroids.length) {
        val d = VecOps.l2Sq(v, centroids(i))
        if (d < bestD) { bestD = d; best = i }
        i += 1
      }
      best
    }
    /** Centroid indices by ascending distance to v. */
    def nearest(v: Array[Float], n: Int): Array[Int] =
      centroids.indices
        .map(i => (i, VecOps.l2Sq(v, centroids(i))))
        .sortBy(_._2)
        .take(math.min(n, centroids.length))
        .map(_._1)
        .toArray
  }

  def fit(data: IndexedSeq[Array[Float]], k: Int, iters: Int = 12,
          seed: Long = 17L): Model = {
    require(data.nonEmpty, "kmeans on empty data")
    val dim = data.head.length
    val r = new Random(seed)
    val kk = math.min(k, data.length)
    // Init: distinct random picks.
    val picks = r.shuffle(data.indices.toVector).take(kk)
    val cents = picks.map(i => VecOps.copy(data(i))).toArray

    var it = 0
    while (it < iters) {
      val sums = Array.fill(kk)(new Array[Float](dim))
      val counts = new Array[Int](kk)
      val model = Model(cents)
      data.foreach { v =>
        val a = model.assign(v)
        VecOps.axpy(1.0f, v, sums(a))
        counts(a) += 1
      }
      var c = 0
      while (c < kk) {
        if (counts(c) > 0) {
          VecOps.scale(sums(c), 1.0f / counts(c))
          cents(c) = sums(c)
        } else {
          cents(c) = VecOps.copy(data(r.nextInt(data.length)))
        }
        c += 1
      }
      it += 1
    }
    Model(cents)
  }
}
