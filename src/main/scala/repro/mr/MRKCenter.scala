package repro.mr

import org.apache.spark.sql.Dataset
import repro.core.{CoresetSpec, GMM}
import repro.data.DataPoint

/** 2-round MapReduce algorithm for k-center (Sec. 3.1).
  *
  * Round 1: partition S into ℓ subsets; on each, run GMM incrementally to a
  * coreset T_i — either a fixed size τ (the experiments set τ = μk) or the
  * ε-stopping rule r(T^τ) ≤ (ε/2)·r(T^k) ([[GMM.coreset]], driven by
  * [[Round1]]).
  *
  * Round 2: the union T = ∪T_i is gathered by a single reducer (the driver)
  * and GMM extracts the final k centers from T. (2+ε)-approximate
  * (Theorem 1); μ = 1 reproduces MalkomesEtAl [26].
  */
object MRKCenter {

  final case class Result(
      centers: Array[Array[Double]],
      coresetUnionSize: Int,
      round1Millis: Long,
      round2Millis: Long,
  )

  def run(ds: Dataset[DataPoint], k: Int, ell: Int, spec: CoresetSpec,
          partitioning: Partitioning = Partitioning.Arbitrary, seed: Long = 42L): Result = {
    import ds.sparkSession.implicits._
    val (union, round1Millis) =
      Round1.union(ds, ell, partitioning, seed)(GMM.coreset(_, spec, seed).centers)
    val t1 = System.nanoTime()
    // Round 2 is the same kernel on the union, stopped at k centers.
    val centers = GMM.coreset(union, CoresetSpec.FixedSize(k), seed).centers
    Result(centers, union.length, round1Millis, (System.nanoTime() - t1) / 1000000)
  }
}
