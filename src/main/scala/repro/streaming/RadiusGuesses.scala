package repro.streaming

import repro.core.Points

/** The initial radius guesses of the [27] baselines, BaseStream and
  * BaseOutliers, taken once their prefix buffer is full.
  */
private[streaming] object RadiusGuesses {

  /** m guesses r_j = r0·2^{j/m}, staggered over a factor 2, where r0 is half
    * the smallest *positive* pairwise distance of `prefix` (1e-12 when all of
    * its points coincide). Among k+1 points (k+z+1 with outliers) two
    * (non-outliers) share an optimal center, so r0 lower-bounds the optimum.
    */
  def staggered(prefix: scala.collection.IndexedSeq[Array[Double]], m: Int): Array[Double] = {
    var minD = Double.MaxValue
    for (i <- prefix.indices; j <- (i + 1) until prefix.length) {
      val d = Points.dist(prefix(i), prefix(j))
      if (d < minD && d > 0) minD = d
    }
    if (minD == Double.MaxValue) minD = 1e-12 // all-duplicate prefix
    val r0 = minD / 2.0
    Array.tabulate(m)(j => r0 * math.pow(2.0, j.toDouble / m))
  }
}
