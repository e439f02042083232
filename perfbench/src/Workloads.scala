package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{GMM, RadiusSearch, SeqCoresetOutliers, WeightedPoint}
import repro.data.{DataPoint, Datasets}
import repro.mr.{MROutliers, Partitioning}
import repro.streaming.{CoresetOutliers, DoublingCoreset}

/** What the correctness gate compares between two solves of one input. */
final case class Solution(centers: Array[Array[Double]], radius: Double, unionPoints: Int) {
  lazy val digest: String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    for (c <- centers; x <- c) { buf.clear(); buf.putDouble(x); md.update(buf.array()) }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** A solve rebuilt from public layer calls: the solution, the weighted union
  * the radius search ran on, its probe count, and the layer's own numbers.
  */
final case class Recomposed(solution: Solution, union: Array[WeightedPoint], probes: Int,
                            layer: Map[String, Double])

/** One benchmark workload: its input, the program's public entry point
  * (`solve`, timed untraced), and the traced recomposition of that entry
  * point from the layer calls it is made of.
  */
abstract class Workload(val name: String, val seed: Long) {
  val k = 20
  val z = 200
  val hatEps = 0.05

  /** The whole input, outliers included, in the order the program sees it. */
  def points: Array[Array[Double]]
  def generate(): Unit
  def solve(): Solution
  def recompose(tr: Tracer): Recomposed
  /** Nanoseconds of the last solve spent passing over the input point by
    * point; the whole solve unless the workload streams.
    */
  def inputPassNs(solveNs: Long): Long = solveNs
  def close(): Unit = ()

  protected def withOutliers(spec: Datasets.Spec, n: Int): Array[Array[Double]] =
    Datasets.withOutliers(Datasets.localPoints(spec, n, seed), z, seed)._1
}

object Workload {
  def apply(name: String, seed: Long, cores: Int, workDir: String): Workload = name match {
    case "mr_det_higgs" => new MrDetHiggs(seed, cores, workDir)
    case "seq_wiki"     => new SeqWiki(seed)
    case "stream_higgs" => new StreamHiggs(seed)
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }
}

/** Fig. 4 deterministic: 2-round MapReduce with all injected outliers routed
  * to partition 0. Round 2 (the radius search on the union) dominates.
  */
final class MrDetHiggs(seed: Long, cores: Int, workDir: String) extends Workload("mr_det_higgs", seed) {
  val n0 = 60000
  val ell = 16
  val mu = 2

  private val spark = SparkSession.builder
    .master(s"local[$cores]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.driver.bindAddress", "127.0.0.1")
    .config("spark.local.dir", s"$workDir/spark-local")
    .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
    .getOrCreate()
  private val capture = new SparkCapture
  spark.sparkContext.addSparkListener(capture)

  private var ds: Dataset[DataPoint] = _
  var points: Array[Array[Double]] = _

  /** Generated on Spark as the Fig. 4 harness does, then collected so the
    * gate, the lower bound and the objective see the same points.
    */
  def generate(): Unit = {
    if (ds != null) ds.unpersist(blocking = true)
    val base = Datasets.points(spark, Datasets.higgsLike, n0, seed, cores)
    ds = Datasets.withOutliersDS(spark, base, z, seed).cache()
    points = ds.collect().sortBy(_.id).map(_.vec)
  }

  def solve(): Solution = {
    val r = MROutliers.runDeterministic(ds, k, z, ell, mu, Partitioning.AdversarialOutliers, hatEps, seed)
    Solution(r.centers, r.searchRadius, r.coresetUnionSize)
  }

  def recompose(tr: Tracer): Recomposed = {
    val (tau, s) = (mu * (k + z), seed)
    val routed = tr.span("mr.partition")(Partitioning.AdversarialOutliers(ds, ell, seed))
    capture.reset()
    val parts = tr.span("mr.round1") {
      val ps = routed.rdd.mapPartitions(it => Iterator(MrDetHiggs.round1(it.map(_.vec).toArray, tau, s))).collect()
      for (p <- ps if p.n > 0) { tr.record("core.gmm", p.t0, p.t1); tr.record("core.weigh", p.t1, p.t2) }
      ps
    }
    val stages = capture.round1()
    val union = parts.flatMap(_.coreset)
    val sr = tr.span("core.search")(RadiusSearch.search(union, k, z.toLong, hatEps, seed))
    val distEvals = parts.map(p => p.n.toDouble * p.coreset.length).sum
    Recomposed(Solution(sr.clustering.centers, sr.radius, union.length), union, sr.probes, Map(
      "core.gmm_s" -> parts.map(p => p.t1 - p.t0).sum / 1e9,
      "core.gmm_dist_evals" -> distEvals,
      "core.weigh_s" -> parts.map(p => p.t2 - p.t1).sum / 1e9,
      "core.weigh_dist_evals" -> distEvals,
      "core.coreset_points" -> union.length.toDouble,
      "mr.route_stage_s" -> stages.routeStageS,
      "mr.round1_stage_s" -> stages.round1StageS,
      "mr.round1_task_s_sum" -> stages.taskSumS,
      "mr.round1_task_s_max" -> stages.taskMaxS,
      "mr.shuffle_write_bytes" -> stages.shuffleWriteBytes.toDouble,
      "mr.shuffle_read_bytes" -> stages.shuffleReadBytes.toDouble,
      "mr.partition_points_max" -> stages.partitionPoints.max.toDouble,
      "mr.partition_points_min" -> stages.partitionPoints.min.toDouble,
      "mr.union_points" -> union.length.toDouble,
      "mr.union_weight" -> union.map(_.weight).sum.toDouble,
    ))
  }

  override def close(): Unit = spark.stop()
}

object MrDetHiggs {
  /** One partition's round-1 output with task-side timestamps. */
  final case class Part(n: Int, coreset: Array[WeightedPoint], t0: Long, t1: Long, t2: Long)

  /** The round-1 kernel of `MROutliers.run`, called layer by layer. */
  def round1(pts: Array[Array[Double]], tau: Int, seed: Long): Part = {
    val t0 = System.nanoTime()
    if (pts.isEmpty) Part(0, Array.empty, t0, t0, t0)
    else {
      val trace = GMM.coresetBySize(pts, tau, math.floorMod(seed, pts.length.toLong).toInt)
      val t1 = System.nanoTime()
      val coreset = GMM.weigh(pts, trace.centers)
      Part(pts.length, coreset, t0, t1, System.nanoTime())
    }
  }
}

/** Fig. 8 with ℓ = 1: one GMM coreset of the whole 50-dimensional input,
  * weighed, then the radius search. GMM and weighing dominate.
  */
final class SeqWiki(seed: Long) extends Workload("seq_wiki", seed) {
  val n0 = 30000
  val tau = 2 * (k + z)

  var points: Array[Array[Double]] = _

  def generate(): Unit = points = withOutliers(Datasets.wikiLike, n0)

  def solve(): Solution = {
    val r = SeqCoresetOutliers.runFixedSize(points, k, z, tau, hatEps, seed)
    Solution(r.centers, r.radius, r.coresetSize)
  }

  def recompose(tr: Tracer): Recomposed = {
    val firstIdx = math.floorMod(seed, points.length.toLong).toInt
    val trace = tr.span("core.gmm")(GMM.coresetBySize(points, tau, firstIdx))
    val union = tr.span("core.weigh")(GMM.weigh(points, trace.centers))
    val sr = tr.span("core.search")(RadiusSearch.search(union, k, z.toLong, hatEps, seed))
    val distEvals = points.length.toDouble * trace.size
    Recomposed(Solution(sr.clustering.centers, sr.radius, union.length), union, sr.probes, Map(
      "core.gmm_s" -> tr.seconds("core.gmm"),
      "core.gmm_dist_evals" -> distEvals,
      "core.weigh_s" -> tr.seconds("core.weigh"),
      "core.weigh_dist_evals" -> points.length.toDouble * union.length,
      "core.coreset_points" -> union.length.toDouble,
    ))
  }
}

/** Fig. 5: CORESETOUTLIERS over a shuffled stream. The per-point update and
  * the doubling merge rule dominate; the end-of-stream search is small.
  */
final class StreamHiggs(seed: Long) extends Workload("stream_higgs", seed) {
  val n0 = 200000
  val mu = 2

  var points: Array[Array[Double]] = _
  private var passNs = 0L

  def generate(): Unit = {
    val pts = withOutliers(Datasets.higgsLike, n0)
    val rnd = new java.util.Random(seed)
    var i = pts.length - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = pts(i); pts(i) = pts(j); pts(j) = t
      i -= 1
    }
    points = pts
  }

  def solve(): Solution = {
    val co = new CoresetOutliers(k, z, mu, hatEps, seed)
    val t0 = System.nanoTime()
    var i = 0
    while (i < points.length) { co.update(points(i)); i += 1 }
    passNs = System.nanoTime() - t0
    val s = co.result()
    Solution(s.centers, s.searchRadius, s.coresetSize)
  }

  override def inputPassNs(solveNs: Long): Long = passNs

  def recompose(tr: Tracer): Recomposed = {
    val dc = new DoublingCoreset(mu * (k + z))
    var merges = 0
    var mergeNs = 0L
    tr.span("stream.update") {
      var i = 0
      while (i < points.length) {
        val phi0 = dc.phi
        val t0 = System.nanoTime()
        dc.update(points(i))
        val t1 = System.nanoTime()
        if (dc.phi != phi0) { merges += 1; mergeNs += t1 - t0; tr.record("stream.merge", t0, t1) }
        i += 1
      }
    }
    val (union, sr) = tr.span("stream.solve") {
      val t = dc.result()
      (t, tr.span("core.search")(RadiusSearch.search(t, k, z.toLong, hatEps, seed)))
    }
    Recomposed(Solution(sr.clustering.centers, sr.radius, union.length), union, sr.probes, Map(
      "stream.update_s" -> tr.seconds("stream.update"),
      "stream.merge_count" -> merges.toDouble,
      "stream.merge_update_s" -> mergeNs / 1e9,
      "stream.final_phi" -> dc.phi,
      "stream.coreset_points" -> union.length.toDouble,
      "stream.solve_s" -> tr.seconds("stream.solve"),
      "stream.solve_probes" -> sr.probes.toDouble,
    ))
  }
}
