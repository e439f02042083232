package repro.mr

import org.apache.spark.sql.{Dataset, Encoder}
import repro.data.DataPoint

/** Round 1 of both 2-round MapReduce algorithms: route S into ℓ subsets,
  * run `kernel` on each subset as one `Dataset.mapPartitions` task (exactly
  * the per-reducer computation of the paper), and gather the union of the
  * coresets on the driver, the single reducer of round 2.
  */
private[mr] object Round1 {

  /** The coreset union and the round-1 wall time in milliseconds. */
  def union[T: Encoder](ds: Dataset[DataPoint], ell: Int, partitioning: Partitioning, seed: Long)
                       (kernel: Array[Array[Double]] => Array[T]): (Array[T], Long) = {
    val t0 = System.nanoTime()
    val union = partitioning(ds, ell, seed)
      .mapPartitions(it => kernel(it.map(_.vec).toArray).iterator)
      .collect()
    require(union.nonEmpty, "empty input dataset")
    (union, (System.nanoTime() - t0) / 1000000)
  }
}
