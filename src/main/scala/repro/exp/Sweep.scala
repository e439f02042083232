package repro.exp

import repro.data.Datasets.Spec
import repro.eval.Evaluate

/** The aggregation shared by the ratio figures (Figs. 2–5): the reps of each
  * sweep cell are averaged, as the paper averages runs, and each cell's mean
  * radius is divided by the best radius ever found on the same dataset over
  * the whole sweep (Sec. 5, "Experimental setting").
  */
object Sweep {

  /** One run of cell `key`: its coreset-union or space size, its radius and
    * its cost (time in ms, or throughput in kpts/s).
    */
  final case class Rep[K](key: K, size: Int, radius: Double, cost: Double)

  /** One averaged cell; `size` is the first rep's. */
  final case class Cell[K](spec: Spec, key: K, size: Int,
                           radius: Double, ratio: Double, cost: Double)

  /** The cells of each dataset, datasets in input order and each dataset's
    * cells sorted by `order(key)`. Reps are summed in run order.
    */
  def cells[K, O: Ordering](runs: Seq[(Spec, Seq[Rep[K]])])(order: K => O): Seq[Cell[K]] = {
    val best = Evaluate.bestByKey(for ((spec, reps) <- runs; r <- reps) yield spec.name -> r.radius)
    runs.flatMap { case (spec, reps) =>
      reps.groupBy(_.key).toSeq.sortBy(g => order(g._1)).map { case (key, rs) =>
        val rad = rs.map(_.radius).sum / rs.size
        Cell(spec, key, rs.head.size, rad, rad / best(spec.name), rs.map(_.cost).sum / rs.size)
      }
    }
  }

  /** Update-loop throughput in kpts/s. */
  def throughput(n: Int, ms: Long): Double = n.toDouble / math.max(1L, ms)
}
