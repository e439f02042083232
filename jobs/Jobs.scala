package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared spark-submit plumbing for the figure jobs. */
object JobSession {
  def make(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** `spark-submit --class repro.jobs.Main <jar> <fig2|…|fig8>` — reproduces one
  * figure at bench scale and prints its table. Figs. 3, 5 and 8 are
  * sequential and need no SparkSession (Spark only hosts the JVM).
  */
object Main {
  private def withSpark(name: String)(fig: SparkSession => String): String = {
    val spark = JobSession.make(name)
    try fig(spark) finally spark.stop()
  }

  private val figures: Seq[(String, () => String)] = Seq(
    "fig2" -> (() => withSpark("fig2-kcenter")(s => Fig2KCenter.render(Fig2KCenter.run(s, ExpConfig.bench)))),
    "fig3" -> (() => Fig3Stream.render(Fig3Stream.run(ExpConfig.bench))),
    "fig4" -> (() => withSpark("fig4-mr-outliers")(s => Fig4MROutliers.render(Fig4MROutliers.run(s, ExpConfig.bench)))),
    "fig5" -> (() => Fig5StreamOutliers.render(Fig5StreamOutliers.run(ExpConfig.bench))),
    "fig6" -> (() => withSpark("fig6-scale")(s => Fig6Scale.render(Fig6Scale.run(s, ExpConfig.bench)))),
    "fig7" -> (() => withSpark("fig7-speedup")(s => Fig7Speedup.render(Fig7Speedup.run(s, ExpConfig.bench)))),
    "fig8" -> (() => Fig8Sequential.render(Fig8Sequential.run(ExpConfig.bench))),
  )

  def main(args: Array[String]): Unit =
    figures.toMap.get(args.headOption.getOrElse("")) match {
      case Some(fig) if args.length == 1 => println(fig())
      case _ =>
        System.err.println(s"usage: repro.jobs.Main <${figures.map(_._1).mkString("|")}>")
        sys.exit(2)
    }
}
