package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import repro.core.{GMM, OutliersCluster, WeightedPoint}
import repro.eval.Evaluate
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Benchmark entry point: one workload, one seed, one process.
  *
  * `--trace 0` times the program's public entry point with no spans and
  * prints the end-to-end metrics; `--trace 1` alternates that untraced solve
  * with a traced recomposition from the layer calls and prints the per-layer
  * metrics. Both modes run the correctness gate on every solve and print one
  * JSON object as the last line of standard output.
  */
object Main {
  private val SetupReps = 5
  private val WarmupSolves = 2

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, cores: Int, out: String)

  final case class Metric(name: String, unit: String, value: Double, computed: Boolean = false)

  /** Counts the benchmark derives from sizes; they repeat exactly for a seed. */
  private val computedCounts = Set(
    "core.probe_first_scan_dist_evals", "core.gmm_dist_evals", "core.weigh_dist_evals",
    "core.search_probes", "core.coreset_points", "mr.union_points", "mr.union_weight",
    "stream.merge_count", "stream.coreset_points", "stream.solve_probes")

  /** Every per-layer metric, with its unit; a workload that does not use a
    * layer reports 0 for it.
    */
  private val perLayer: Seq[(String, String)] = Seq(
    "core.search_s" -> "s", "core.search_probes" -> "count", "core.probe_s" -> "s",
    "core.probe_first_scan_dist_evals" -> "count",
    "core.gmm_s" -> "s", "core.gmm_dist_evals" -> "count", "core.weigh_s" -> "s",
    "core.weigh_dist_evals" -> "count", "core.coreset_points" -> "count",
    "mr.route_stage_s" -> "s", "mr.round1_stage_s" -> "s", "mr.round1_task_s_sum" -> "s",
    "mr.round1_task_s_max" -> "s", "mr.shuffle_write_bytes" -> "bytes", "mr.shuffle_read_bytes" -> "bytes",
    "mr.partition_points_max" -> "count", "mr.partition_points_min" -> "count",
    "mr.union_points" -> "count", "mr.union_weight" -> "count", "mr.self_s" -> "s",
    "stream.update_s" -> "s", "stream.merge_count" -> "count", "stream.merge_update_s" -> "s",
    "stream.final_phi" -> "dist", "stream.coreset_points" -> "count", "stream.solve_s" -> "s",
    "stream.solve_probes" -> "count", "stream.self_s" -> "s",
    "data.gen_s" -> "s", "data.lb_s" -> "s", "eval.objective_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.peak_heap_mb" -> "MB", "trace.overhead_s" -> "s")

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch { case e: Throwable => e.printStackTrace(); 2 }
    System.out.flush()
    sys.exit(code)
  }

  private def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, "arguments come in --name value pairs")
    val m = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toInt, m("trace") == "1", m("cores").toInt, m("out"))
  }

  def run(o: Opts): Int = {
    val t0 = System.nanoTime()
    val w = Workload(o.workload, o.seed, o.cores, o.out)
    try {
      val setupTracers = (1 to SetupReps).map(i => new Tracer(s"setup$i"))
      var lb = 0.0
      for (tr <- setupTracers) {
        System.gc()
        tr.span("setup") {
          tr.span("data.gen")(w.generate())
          // Generation leaves the points scattered among its garbage; the
          // solves see them compacted, and so should the lower bound's scans.
          System.gc()
          lb = tr.span("data.lb")(lowerBound(w.points, w.k + w.z + 1))
        }
      }
      val gate = new Gate(w, lb)

      // The first solve is the reference every later solve must reproduce,
      // and the one whose quality is certified. Untimed solves warm the JIT.
      val ref = w.solve()
      val objT0 = System.nanoTime()
      val objective = Evaluate.radiusWithOutliersLocal(w.points, ref.centers, w.z)
      val objectiveS = (System.nanoTime() - objT0) / 1e9
      gate.check(ref, objective = Some(objective))
      for (_ <- 1 until WarmupSolves) gate.check(w.solve())

      val deadline = System.nanoTime() + o.seconds * 1000000000L
      val solveS, passS, heapMb, tracedS = ArrayBuffer.empty[Double]
      val reps = ArrayBuffer.empty[Map[String, Double]]
      val repTracers = ArrayBuffer.empty[Tracer]
      // Each timed solve starts from a collected heap, so that one solve's
      // garbage is not charged to the next and the heap peak is comparable.
      def untracedSolve(): Unit = {
        System.gc()
        heapPools.foreach(_.resetPeakUsage())
        val s0 = System.nanoTime()
        val s = w.solve()
        val ns = System.nanoTime() - s0
        heapMb += heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
        solveS += ns / 1e9
        passS += w.inputPassNs(ns) / 1e9
        gate.check(s)
      }
      def tracedSolve(tr: Tracer): Map[String, Double] = {
        System.gc()
        val gc0 = gcMillis()
        val rc = tr.span("solve")(w.recompose(tr))
        val gcS = (gcMillis() - gc0) / 1e3
        gate.check(rc.solution, union = Some(rc.union))
        tr.span("core.probe")(OutliersCluster.run(rc.union, w.k, rc.solution.radius, w.hatEps))
        rc.layer ++ Map(
          "core.search_s" -> tr.seconds("core.search"),
          "core.search_probes" -> rc.probes.toDouble,
          "core.probe_s" -> tr.seconds("core.probe"),
          "core.probe_first_scan_dist_evals" -> rc.union.length.toDouble * rc.union.length,
          "mr.self_s" -> tr.selfSeconds("mr"),
          "stream.self_s" -> tr.selfSeconds("stream"),
          "jvm.gc_s" -> gcS)
      }

      if (!o.trace) {
        do untracedSolve() while (System.nanoTime() < deadline)
        tracedSolve(new Tracer("gate"))
      } else {
        do {
          untracedSolve()
          val tr = new Tracer(s"rep${repTracers.length}")
          repTracers += tr
          reps += tracedSolve(tr)
          tracedS += tr.seconds("solve")
        } while (System.nanoTime() < deadline)
      }

      // A solve's work is fixed for a seed, yet on a shared host its time
      // varies up to twofold with the load of other tenants. The fastest
      // timed solve of the run is the one least slowed by them.
      val n = w.points.length
      val metrics =
        if (!o.trace) Seq(
          Metric("setup_s", "s", median(setupTracers.map(_.seconds("setup")))),
          Metric("solve_s", "s", solveS.min),
          Metric("update_kpts_per_s", "kpts/s", n / passS.min / 1e3),
          Metric("certified_ratio", "ratio", objective / lb))
        else {
          val once = Map(
            "data.gen_s" -> median(setupTracers.map(_.seconds("data.gen"))),
            "data.lb_s" -> median(setupTracers.map(_.seconds("data.lb"))),
            "eval.objective_s" -> objectiveS,
            "jvm.peak_heap_mb" -> median(heapMb),
            "trace.overhead_s" -> (tracedS.min - solveS.min))
          perLayer.map { case (name, unit) =>
            val v = once.getOrElse(name, median(reps.map(_.getOrElse(name, 0.0))))
            Metric(name, unit, v, computedCounts(name))
          }
        }

      if (o.trace) writeSpans(o, t0, setupTracers ++ repTracers)
      report(o, w, ref, objective, lb, setupTracers.map(_.seconds("setup")), solveS, passS, tracedS, gate, metrics)
      if (gate.failed == 0) 0 else 1
    } finally w.close()
  }

  /** Half the smallest pairwise distance among the first m GMM centers of the
    * input. Among m = k+z+1 input points at least k+1 are inliers of an
    * optimal solution and two of those share a center, so this is ≤ r*_{k,z}.
    * The distance is recomputed here, not taken from the GMM trace.
    */
  def lowerBound(points: Array[Array[Double]], m: Int): Double = {
    val cs = GMM.run(points, m)
    var best = Double.MaxValue
    for (i <- cs.indices; j <- i + 1 until cs.length) {
      var s = 0.0
      var d = 0
      while (d < cs(i).length) { val x = cs(i)(d) - cs(j)(d); s += x * x; d += 1 }
      best = math.min(best, math.sqrt(s))
    }
    best / 2
  }

  private lazy val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def writeSpans(o: Opts, t0: Long, tracers: Seq[Tracer]): Unit = {
    val path = java.nio.file.Paths.get(o.out, s"spans-${o.workload}-seed${o.seed}.jsonl")
    java.nio.file.Files.write(path, tracers.flatMap(_.jsonLines(t0)).asJava)
  }

  private def report(o: Opts, w: Workload, ref: Solution, objective: Double, lb: Double,
                     setupS: collection.Seq[Double], solveS: collection.Seq[Double],
                     passS: collection.Seq[Double], tracedS: collection.Seq[Double], gate: Gate,
                     metrics: Seq[Metric]): Unit = {
    def fmt(xs: collection.Seq[Double]) =
      if (xs.isEmpty) "no samples"
      else f"min ${xs.min}%.4f median ${median(xs)}%.4f s over ${xs.length} samples: " +
           xs.map(x => f"$x%.4f").mkString(" ")
    println(s"workload ${w.name} seed ${o.seed} cores ${o.cores} trace ${if (o.trace) 1 else 0} n ${w.points.length}")
    println(s"setup_s ${fmt(setupS)}")
    println(s"untraced solve_s ${fmt(solveS)}")
    println(s"untraced input pass ${fmt(passS)}")
    if (o.trace) println(s"traced solve_s ${fmt(tracedS)}")
    println(s"centers_digest ${ref.digest} centers ${ref.centers.length} search_radius ${ref.radius} " +
            s"union_points ${ref.unionPoints} objective_radius $objective lower_bound $lb")
    for (p <- gate.problems.distinct) println(s"GATE FAILED: $p")
    for (m <- metrics)
      println(s"metric ${m.name} = ${m.value} ${m.unit}${if (m.computed) " [computed]" else ""}")
    val body = metrics.map(m => s""""${m.name}":{"value":${m.value},"unit":"${m.unit}"}""").mkString(",")
    println(s"""{"correct":${gate.failed == 0},"attempted":${gate.attempted},"failed":${gate.failed},"metrics":{$body}}""")
  }
}

/** The correctness gate. A solve fails when it returns no centers or more
  * than k, when a center is not an input point, when the union weights it
  * exposes do not sum to n, when its objective radius is below the certified
  * lower bound, or when it differs from the first solve of the same input.
  */
final class Gate(w: Workload, lb: Double) {
  var attempted = 0
  var failed = 0
  val problems = ArrayBuffer.empty[String]
  private var ref: Solution = _

  def check(s: Solution, union: Option[Array[WeightedPoint]] = None, objective: Option[Double] = None): Unit = {
    val errs = ArrayBuffer.empty[String]
    val n = w.points.length
    if (s.centers.isEmpty || s.centers.length > w.k) errs += s"${s.centers.length} centers, want 1 to ${w.k}"
    if (!s.centers.forall(c => w.points.exists(p => java.util.Arrays.equals(p, c))))
      errs += "a center is not an input point"
    for (u <- union; sum = u.map(_.weight).sum if sum != n) errs += s"union weights sum to $sum, not n = $n"
    for (r <- objective if !(lb > 0 && r >= lb)) errs += s"objective radius $r is below the lower bound $lb"
    if (ref == null) ref = s
    else if (s.digest != ref.digest || s.radius != ref.radius || s.unionPoints != ref.unionPoints)
      errs += s"solve gave digest ${s.digest} radius ${s.radius} union ${s.unionPoints}, " +
              s"the reference gave ${ref.digest} ${ref.radius} ${ref.unionPoints}"
    attempted += 1
    if (errs.nonEmpty) { failed += 1; problems ++= errs }
  }
}
