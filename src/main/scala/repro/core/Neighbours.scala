package repro.core

/** A bounded neighbour index over a point set T, in compressed-row form.
  *
  * Row i is `nbr(rowStart(i) until rowStart(i+1))`: every j (i itself
  * included) with `Points.sqDist(t_i, t_j) ≤ radiusSq`, in ascending order
  * of `sqd`, the matching squared distances (ties by j). A ball of squared
  * radius at most `radiusSq` around t_i is then a prefix of row i.
  *
  * The radius search builds one index before its first probe, and every
  * OUTLIERSCLUSTER probe whose selection ball fits inside it reads its ball
  * weights from row prefixes instead of recomputing distances (DESIGN.md §4).
  */
final class Neighbours private (
    val radiusSq: Double,
    val rowStart: Array[Int],
    val nbr: Array[Int],
    val sqd: Array[Double],
)

object Neighbours {

  /** Rows built by one parallel task, which owns one set of scratch arrays. */
  private val RowsPerTask = 64

  /** The index of `vecs` at `radiusSq`, or None when it would hold more than
    * `maxEntries` entries. A first parallel pass counts each row and a
    * second one fills and sorts it, so nothing beyond the index and a small
    * scratch per task is allocated. Each row depends only on the input.
    */
  def build(vecs: Array[Array[Double]], radiusSq: Double, maxEntries: Int): Option[Neighbours] = {
    val n = vecs.length
    val rowStart = new Array[Int](n + 1)
    Par.forRange(n) { i =>
      val vi = vecs(i)
      var len = 0
      var j = 0
      while (j < n) { if (Points.sqDist(vi, vecs(j)) <= radiusSq) len += 1; j += 1 }
      rowStart(i + 1) = len
    }
    var total = 0L
    var i = 0
    while (i < n) { total += rowStart(i + 1); rowStart(i + 1) = total.toInt; i += 1 }
    if (total > maxEntries) return None

    // Sort key of an entry: the bits of its distance, whose order on
    // non-negative doubles is the numeric one, with the low `jBits` replaced
    // by j. Keys order entries by distance up to that truncation, so an
    // insertion pass then finishes the exact (sqd, j) order in near-linear time.
    val jBits = 32 - Integer.numberOfLeadingZeros(math.max(1, n - 1))
    val jMask = (1L << jBits) - 1
    val nbr = new Array[Int](total.toInt)
    val sqd = new Array[Double](total.toInt)
    Par.forRange((n + RowsPerTask - 1) / RowsPerTask) { task =>
      val dOf = new Array[Double](n)  // the row's distances, by j
      val keys = new Array[Long](n)
      var i = task * RowsPerTask
      while (i < math.min(n, (task + 1) * RowsPerTask)) {
        val vi = vecs(i)
        var len = 0
        var j = 0
        while (j < n) {
          val d = Points.sqDist(vi, vecs(j))
          if (d <= radiusSq) {
            dOf(j) = d
            keys(len) = (java.lang.Double.doubleToRawLongBits(d) & ~jMask) | j
            len += 1
          }
          j += 1
        }
        java.util.Arrays.sort(keys, 0, len)
        val start = rowStart(i)
        var p = 0
        while (p < len) {
          val j = (keys(p) & jMask).toInt
          val d = dOf(j)
          var q = start + p
          while (q > start && (sqd(q - 1) > d || (sqd(q - 1) == d && nbr(q - 1) > j))) {
            sqd(q) = sqd(q - 1); nbr(q) = nbr(q - 1); q -= 1
          }
          sqd(q) = d; nbr(q) = j
          p += 1
        }
        i += 1
      }
    }
    Some(new Neighbours(radiusSq, rowStart, nbr, sqd))
  }
}
