package perfbench

import java.io.{BufferedWriter, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.nio.file.Path
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** Span recorder for the traced replay.
  *
  * A span is (run id, name, start, end, parent span). Spans are kept in
  * growable primitive arrays while the replay runs and written once, at the
  * end. A disabled tracer runs the body and records nothing, which is how the
  * untraced replay measures the tracing overhead.
  */
final class Tracer(val enabled: Boolean) {
  /** Identifies the request (one replayed mining job) the next spans belong to. */
  var runId = 0

  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var name = new Array[Int](1 << 12)
  private var run = new Array[Int](1 << 12)
  private var parent = new Array[Int](1 << 12)
  private var start = new Array[Long](1 << 12)
  private var end = new Array[Long](1 << 12)
  private var n = 0
  private var open = -1

  def size: Int = n

  def span[A](label: String)(body: => A): A =
    if (!enabled) body
    else {
      if (n == name.length) grow()
      val id = n
      n += 1
      name(id) = nameIds.getOrElseUpdate(label, { names += label; names.length - 1 })
      run(id) = runId
      parent(id) = open
      open = id
      start(id) = System.nanoTime()
      try body
      finally {
        end(id) = System.nanoTime()
        open = parent(id)
      }
    }

  private def grow(): Unit = {
    val cap = name.length * 2
    name = java.util.Arrays.copyOf(name, cap)
    run = java.util.Arrays.copyOf(run, cap)
    parent = java.util.Arrays.copyOf(parent, cap)
    start = java.util.Arrays.copyOf(start, cap)
    end = java.util.Arrays.copyOf(end, cap)
  }

  /** Per span name over the requests selected by `runs`: count, total and
    * self time (total minus the time covered by child spans) and the longest
    * single span.
    */
  def summary(runs: Int => Boolean): Map[String, Tracer.Stat] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      if (parent(i) >= 0) childNs(parent(i)) += end(i) - start(i)
      i += 1
    }
    val out = mutable.HashMap.empty[String, Tracer.Stat]
    i = 0
    while (i < n) {
      if (runs(run(i))) {
        val d = end(i) - start(i)
        val s = out.getOrElse(names(name(i)), Tracer.Stat(0, 0L, 0L, 0L))
        out(names(name(i))) = Tracer.Stat(s.count + 1, s.totalNs + d, s.selfNs + d - childNs(i),
                                          math.max(s.maxNs, d))
      }
      i += 1
    }
    out.toMap
  }

  /** Write every span as gzipped CSV, times in ns relative to the first span. */
  def write(path: Path): Unit = {
    val w = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(path.toFile)), StandardCharsets.UTF_8))
    try {
      w.write("run,span,parent,name,start_ns,end_ns\n")
      val t0 = if (n > 0) start(0) else 0L
      var i = 0
      while (i < n) {
        w.write(s"${run(i)},$i,${parent(i)},${names(name(i))},${start(i) - t0},${end(i) - t0}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  final case class Stat(count: Long, totalNs: Long, selfNs: Long, maxNs: Long) {
    def totalS: Double = totalNs / 1e9
    def selfS: Double = selfNs / 1e9
    def maxS: Double = maxNs / 1e9
  }
}
