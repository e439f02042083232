package repro.core

/** Algorithm 1 of the paper: weighted outliers clustering.
  *
  * OUTLIERSCLUSTER(T, k, r, ε̂) greedily builds at most k centers. In each
  * iteration the next center x is the point of T (covered or not — the paper
  * notes x need not be uncovered) maximizing the aggregate weight of the
  * *uncovered* points within distance (1+2ε̂)·r of x; afterwards every
  * uncovered point within (3+4ε̂)·r of x becomes covered. Terminates when
  * k centers are chosen or everything is covered.
  *
  * With ε̂ = 0 and unit weights on the full input this is exactly the
  * sequential 3-approximation of Charikar et al. [16] for one radius guess.
  *
  * Implementation notes (pure optimizations — selection is still the exact
  * argmax of the paper, ties broken by lowest index):
  *  - the first argmax scan computes every candidate's ball weight in
  *    parallel ([[Par.forRange]]);
  *  - later iterations use lazy re-evaluation: a candidate's ball weight is
  *    non-increasing over iterations (the uncovered set only shrinks), so a
  *    max-heap of cached weights needs to refresh only entries that surface
  *    at the top — the classic lazy-greedy argument applies verbatim;
  *  - given a [[Neighbours]] index whose radius covers the selection ball,
  *    a ball weight is a prefix scan of the candidate's row instead of a
  *    distance scan over the uncovered points. Both sum the same `Long`
  *    weights over the same points, so the result is identical.
  */
object OutliersCluster {

  /** @param centers   the selected centers X, |X| ≤ k
    * @param uncovered the final T' (points farther than (3+4ε̂)r from X)
    * @param uncoveredWeight aggregate weight of `uncovered` — the quantity the
    *                        radius search compares against z
    */
  final case class Result(
      centers: Array[Array[Double]],
      uncovered: Array[WeightedPoint],
      uncoveredWeight: Long,
  )

  /** OUTLIERSCLUSTER(T, k, r, ε̂) by distance scans. The points must share
    * one dimension and have finite coordinates.
    */
  def run(t: Array[WeightedPoint], k: Int, r: Double, hatEps: Double): Result = {
    Points.requireValid(t.map(_.vec))
    run(t, k, r, hatEps, None)
  }

  /** [[run]] on validated input, reading ball weights from `index` when its
    * radius covers the selection ball.
    */
  private[core] def run(t: Array[WeightedPoint], k: Int, r: Double, hatEps: Double,
                        index: Option[Neighbours]): Result = {
    require(r >= 0, s"radius must be non-negative, got $r")
    require(hatEps >= 0, s"eps-hat must be non-negative, got $hatEps")
    val n = t.length
    val vecs = new Array[Array[Double]](n)
    val ws   = new Array[Long](n)
    var i = 0
    while (i < n) { vecs(i) = t(i).vec; ws(i) = t(i).weight; i += 1 }

    val innerSq = { val d = (1.0 + 2.0 * hatEps) * r; d * d } // ball B_x
    val outerSq = { val d = (3.0 + 4.0 * hatEps) * r; d * d } // ball E_x

    // Compact array of indices of currently uncovered points, and its
    // complement as flags.
    var unc    = Array.tabulate(n)(identity)
    var uncLen = n
    val covered = new Array[Boolean](n)

    val rows = index.filter(innerSq <= _.radiusSq).orNull
    def ballWeight(cand: Int): Long = {
      var w = 0L
      if (rows != null) {
        var p = rows.rowStart(cand)
        val end = rows.rowStart(cand + 1)
        while (p < end && rows.sqd(p) <= innerSq) {
          if (!covered(rows.nbr(p))) w += ws(rows.nbr(p))
          p += 1
        }
      } else {
        val cv = vecs(cand)
        var ui = 0
        while (ui < uncLen) {
          if (Points.sqDist(cv, vecs(unc(ui))) <= innerSq) w += ws(unc(ui))
          ui += 1
        }
      }
      w
    }

    // Max-heap over (cachedWeight, -index); `freshAt(i)` is the iteration the
    // cache entry for candidate i was computed in.
    val cached  = new Array[Long](n)
    val freshAt = new Array[Int](n)
    Par.forRange(n)(ci => cached(ci) = ballWeight(ci))
    val heap = new java.util.PriorityQueue[Integer](math.max(1, n),
      (a: Integer, b: Integer) => {
        val c = java.lang.Long.compare(cached(b.intValue), cached(a.intValue))
        if (c != 0) c else Integer.compare(a.intValue, b.intValue)
      })
    i = 0
    while (i < n) { heap.add(i); i += 1 }

    val centers = new scala.collection.mutable.ArrayBuffer[Array[Double]](k)
    var iter = 0
    while (centers.length < k && uncLen > 0) {
      // Lazy argmax: refresh stale heads until the head is current.
      var bestIdx = -1
      while (bestIdx < 0) {
        val top = heap.poll().intValue
        if (freshAt(top) == iter) bestIdx = top
        else {
          cached(top) = ballWeight(top)
          freshAt(top) = iter
          heap.add(top)
        }
      }
      heap.add(bestIdx) // candidates stay eligible in later iterations
      val x = vecs(bestIdx)
      centers += x
      // Remove the outer ball E_x from the uncovered set.
      var keep = 0
      var ui = 0
      while (ui < uncLen) {
        if (Points.sqDist(x, vecs(unc(ui))) > outerSq) { unc(keep) = unc(ui); keep += 1 }
        else covered(unc(ui)) = true
        ui += 1
      }
      uncLen = keep
      iter += 1
    }

    val uncovered = Array.tabulate(uncLen)(j => WeightedPoint(vecs(unc(j)), ws(unc(j))))
    Result(centers.toArray, uncovered, uncovered.map(_.weight).sum)
  }
}
