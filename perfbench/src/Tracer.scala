package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded around the benchmark's calls into each layer.
  *
  * A span's name is `<layer>.<what>` (`core.gmm`, `mr.round1`, ...), or a
  * bare name for benchmark glue (`solve`, `setup`). Spans nest by call order
  * on the calling thread; [[record]] adds a span measured elsewhere (a Spark
  * task in this JVM, or one streaming update) under the innermost open span.
  * Times are `System.nanoTime`, which every thread of the JVM shares.
  */
final class Tracer(val label: String) {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[A](name: String)(body: => A): A = {
    val id = spans.length
    spans += Span(name, open.headOption.getOrElse(-1), System.nanoTime(), -1L)
    open = id :: open
    try body
    finally {
      open = open.tail
      spans(id) = spans(id).copy(end = System.nanoTime())
    }
  }

  def record(name: String, start: Long, end: Long): Unit =
    spans += Span(name, open.headOption.getOrElse(-1), start, end)

  /** Summed duration of every span called `name`, in seconds. */
  def seconds(name: String): Double =
    spans.iterator.filter(_.name == name).map(_.durNs).sum / 1e9

  /** Summed self time of the spans of one layer, in seconds: each span's
    * duration minus the part of it that its child spans cover.
    */
  def selfSeconds(layer: String): Double = {
    val children = spans.indices.groupBy(i => spans(i).parent)
    spans.indices.iterator.filter(i => spans(i).name.startsWith(layer + ".")).map { i =>
      val s = spans(i)
      val kids = children.getOrElse(i, Nil).map(spans).map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var reach = s.start
      for ((a, b) <- kids) {
        val from = math.max(a, reach)
        if (b > from) { covered += b - from; reach = b }
      }
      s.durNs - covered
    }.sum / 1e9
  }

  /** The spans as JSON objects, with times relative to `t0` in nanoseconds. */
  def jsonLines(t0: Long): Iterator[String] = spans.indices.iterator.map { i =>
    val s = spans(i)
    s"""{"run":"$label","id":$i,"name":"${s.name}","parent":${s.parent},"start_ns":${s.start - t0},"end_ns":${s.end - t0}}"""
  }
}

object Tracer {
  final case class Span(name: String, parent: Int, start: Long, end: Long) {
    def durNs: Long = end - start
  }
}
