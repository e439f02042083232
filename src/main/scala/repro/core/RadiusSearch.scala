package repro.core

import scala.util.Random

/** Second-round radius search (Sec. 3.2): estimate the minimum r such that
  * OUTLIERSCLUSTER(T, k, r, ε̂) leaves uncovered weight ≤ z, within
  * multiplicative tolerance (1+δ), δ = ε̂/(3+4ε̂).
  *
  * The paper binary-searches the O(|T|²) pairwise distances combined with a
  * (1+δ)-geometric search, using streaming median-finding to avoid storing
  * the distances. We keep the same probe structure but bound memory by
  * binary-searching a uniform *sample* of pairwise distances and then
  * refining geometrically inside the bracketing gap — the returned radius is
  * still within (1+δ) of the smallest feasible one, which is all Theorem 2's
  * proof uses (deviation documented in DESIGN.md §4).
  *
  * The probes of one search share one bounded [[Neighbours]] index over T,
  * built before the first probe; it changes their cost, not their results.
  */
object RadiusSearch {

  /** Cap on sampled candidate distances; 2·10⁵ doubles is ~1.6 MB. */
  private val MaxCandidates = 200_000

  /** Cap on the entries of the neighbour index; 2²³ entries of an Int and a
    * Double are ~100 MB.
    */
  private val MaxNeighbours = 1 << 23

  final case class SearchResult(
      radius: Double,
      clustering: OutliersCluster.Result,
      probes: Int,
  )

  /** Sorted distinct candidate radii: all pairwise distances when |T| is
    * small, else a uniform random sample of pairs.
    */
  private[core] def candidateDistances(vecs: Array[Array[Double]], seed: Long): Array[Double] = {
    val n = vecs.length
    val nPairs = n.toLong * (n - 1) / 2
    val ds =
      if (nPairs <= MaxCandidates) {
        val buf = new Array[Double](nPairs.toInt)
        var p = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) { buf(p) = Points.dist(vecs(i), vecs(j)); p += 1; j += 1 }
          i += 1
        }
        buf
      } else {
        val rnd = new Random(seed)
        Array.fill(MaxCandidates) {
          var i = rnd.nextInt(n)
          var j = rnd.nextInt(n)
          while (j == i) { j = rnd.nextInt(n); i = rnd.nextInt(n) }
          Points.dist(vecs(i), vecs(j))
        }
      }
    // Distances are finite and >= 0, so the IEEE order of Arrays.sort is the
    // numeric one; dedupe in place.
    java.util.Arrays.sort(ds)
    var len = 0
    var p = 0
    while (p < ds.length) {
      if (len == 0 || ds(p) != ds(len - 1)) { ds(len) = ds(p); len += 1 }
      p += 1
    }
    if (len == 0) Array(0.0) else java.util.Arrays.copyOf(ds, len)
  }

  /** The neighbour index shared by the probes of one search. Its radius is
    * the largest candidate c whose estimated entry count
    * |T| + |T|(|T|−1)·(fraction of candidates ≤ c) is at most half of
    * `maxEntries`; when all |T|² pairs fit, it holds every pair. None when
    * not even the smallest candidate fits, or when the exact count exceeds
    * `maxEntries`.
    */
  private def neighbourIndex(vecs: Array[Array[Double]], cand: Array[Double],
                             maxEntries: Int): Option[Neighbours] = {
    val n = vecs.length.toLong
    if (n * n <= maxEntries / 2) return Neighbours.build(vecs, Double.PositiveInfinity, maxEntries)
    var c = cand.length - 1
    while (c >= 0 && n + n * (n - 1) * ((c + 1).toDouble / cand.length) > maxEntries / 2) c -= 1
    if (c < 0) None else Neighbours.build(vecs, cand(c) * cand(c), maxEntries)
  }

  /** Find r̃_min and return the clustering OUTLIERSCLUSTER(T, k, r̃_min, ε̂). */
  def search(t: Array[WeightedPoint], k: Int, z: Long, hatEps: Double, seed: Long = 42L): SearchResult =
    search(t, k, z, hatEps, seed, MaxNeighbours)

  /** [[search]] with an index of at most `maxNeighbours` entries (0: none). */
  private[core] def search(t: Array[WeightedPoint], k: Int, z: Long, hatEps: Double, seed: Long,
                           maxNeighbours: Int): SearchResult = {
    require(t.nonEmpty, "radius search needs a non-empty coreset")
    val vecs = t.map(_.vec)
    Points.requireValid(vecs)
    val cand = candidateDistances(vecs, seed)
    val index = neighbourIndex(vecs, cand, maxNeighbours)
    var probes = 0
    def feasible(r: Double): Option[OutliersCluster.Result] = {
      probes += 1
      val res = OutliersCluster.run(t, k, r, hatEps, index)
      if (res.uncoveredWeight <= z) Some(res) else None
    }

    feasible(0.0) match {
      case Some(res0) => return SearchResult(0.0, res0, probes)
      case None       => ()
    }

    // Binary search the smallest feasible candidate. Feasibility is treated
    // as monotone in r (standard for this greedy; the geometric refinement
    // below re-verifies the returned radius).
    var lo = 0
    var hi = cand.length - 1
    var best: OutliersCluster.Result = null
    var bestR = cand(hi)
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      feasible(cand(mid)) match {
        case Some(res) => best = res; bestR = cand(mid); hi = mid - 1
        case None      => lo = mid + 1
      }
    }
    if (best == null) {
      // The max sampled distance was infeasible (possible when candidates are
      // sampled); grow geometrically until feasible.
      var r = cand.last
      var res: Option[OutliersCluster.Result] = None
      while (res.isEmpty) { r *= 2.0; res = feasible(r) }
      best = res.get; bestR = r
    }

    // Geometric refinement inside the bracketing gap (floor, bestR]: bisect
    // in log-space until bestR is within (1+δ) of the infeasible floor, so
    // the returned radius is a (1+δ)-approximation of the minimal feasible
    // one even when sampled candidates leave a wide gap.
    val delta = if (hatEps > 0) hatEps / (3.0 + 4.0 * hatEps) else 0.01
    val floor = if (lo > 0 && lo - 1 < cand.length) cand(math.max(0, lo - 1)) else 0.0
    var loR = if (floor > 0) floor else bestR * 1e-9
    var steps = 0
    while (bestR / loR > 1.0 + delta && steps < 100) {
      val mid = math.sqrt(loR * bestR)
      feasible(mid) match {
        case Some(res) => best = res; bestR = mid
        case None      => loR = mid
      }
      steps += 1
    }
    SearchResult(bestR, best, probes)
  }
}
