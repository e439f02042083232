package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.Datasets
import repro.eval.Evaluate
import repro.mr.{MROutliers, Partitioning}

/** Experiment of Fig. 4: MapReduce k-center with z outliers — approximation
  * ratio and running time of the deterministic (coresets of size μ(k+z),
  * adversarial partitioning: all outliers in one partition) and randomized
  * (coresets of size μ(k+6z/ℓ), random partitioning) algorithms;
  * μ ∈ {1,2,4,8}, k = 20, z = 200, ℓ = 16. Deterministic μ = 1 is the
  * MalkomesEtAl [26] baseline.
  */
object Fig4MROutliers {

  final case class Row(dataset: String, algo: String, mu: Int, coresetUnion: Int,
                       radius: Double, ratio: Double, timeMs: Long)

  val mus: Seq[Int] = Seq(1, 2, 4, 8)
  val Ell = 16

  def run(spark: SparkSession, cfg: ExpConfig): Seq[Row] = {
    val (k, z) = (cfg.kOutliers, cfg.zOutliers)
    val raw = for (spec <- cfg.specs) yield {
      val base = Datasets.points(spark, spec, cfg.nFor(spec), cfg.seed)
      val ds = Datasets.withOutliersDS(spark, base, z, cfg.seed).cache()
      ds.count()
      val rows =
        for (mu <- mus; algo <- Seq("deterministic", "randomized"); rep <- 1 to cfg.reps) yield {
          val seed = cfg.seed + 131L * rep
          val res = algo match {
            case "deterministic" =>
              MROutliers.runDeterministic(ds, k, z, Ell, mu,
                partitioning = Partitioning.AdversarialOutliers, seed = seed)
            case "randomized" =>
              MROutliers.runRandomized(ds, k, z, Ell, mu, seed = seed)
          }
          Sweep.Rep((algo, mu), res.coresetUnionSize, Evaluate.radiusWithOutliersDS(ds, res.centers, z),
                    (res.round1Millis + res.round2Millis).toDouble)
        }
      ds.unpersist()
      spec -> rows
    }
    Sweep.cells(raw) { case (algo, mu) => (mu, algo) }.map { c =>
      Row(c.spec.name, c.key._1, c.key._2, c.size, c.radius, c.ratio, c.cost.toLong)
    }
  }

  def render(rows: Seq[Row]): String =
    Tables.render("Fig. 4 — MapReduce k-center with z outliers: ratio & time, det vs randomized",
      Seq("dataset", "algo", "mu", "|T|", "radius", "ratio", "time_ms"),
      rows.map(r => Seq(r.dataset, r.algo, r.mu.toString, r.coresetUnion.toString,
                        Tables.f(r.radius), Tables.f(r.ratio), r.timeMs.toString)))
}
