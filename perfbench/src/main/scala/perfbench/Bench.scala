package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{DesqDfs, Drivers, Pattern}
import repro.data.{SeqDB, SeqData}
import repro.fst.{Fst, FstCompiler}

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The repository benchmark: one workload per run, in one JVM on a
  * `local[cores]` SparkSession.
  *
  * `--trace 0` times D-SEQ, D-CAND and sequential DESQ-DFS in a closed loop
  * (one mining job at a time, each starting after the previous returned)
  * for `--seconds`, and reports the end-to-end metrics. `--trace 1` reports
  * the per-layer metrics: Spark stage metrics of one round of jobs, and a
  * traced Spark-free replay of the same dataflow (see [[Replay]]).
  *
  * Every mining result is compared, as a whole map, with the sequential
  * DESQ-DFS result computed during set-up. The last line of standard output
  * is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
  */
object Bench {

  final case class Metric(name: String, value: Double, unit: String)

  /** Set-ups per end-to-end run; `setup_s` is their median. */
  val SetupRepeats = 3

  /** Everything a run mines on, produced by [[setup]]. */
  final class Prepared(
      val db: SeqDB,
      val local: IndexedSeq[Array[Int]],
      val weighted: IndexedSeq[(Array[Int], Long)],
      val fsts: IndexedSeq[Fst],
      val refs: IndexedSeq[Map[Pattern, Long]],
      val generateS: Double,
      val encodeS: Double
  )

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName)
    if (workload.isEmpty || argv.length % 2 != 0 || !Seq("seed", "seconds", "trace").forall(opts.contains)) {
      Console.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
        "> --seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val cores = Runtime.getRuntime.availableProcessors()
    val root = Paths.get("").toAbsolutePath
    val out = root.resolve("perfbench").resolve("out")
    Files.createDirectories(out)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try new Bench(spark, workload.get, opts("seed").toLong, opts("seconds").toInt, root, out)
        .run(trace = opts("trace") == "1")
      finally spark.stop()
    sys.exit(code)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}

final class Bench(spark: SparkSession, w: Workload, seed: Long, seconds: Int, root: Path, out: Path) {
  import Bench._

  private val sc = spark.sparkContext
  private val listener = new JobListener(sc)
  private val constraints = w.constraints.toIndexedSeq
  private var nAttempted = 0
  private var nFailed = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  private var jobSeq = 0

  /** Record one checked mining result. */
  private def check(label: String)(result: => Map[Pattern, Long], ref: Map[Pattern, Long]): Boolean = {
    nAttempted += 1
    val ok =
      try {
        val r = result
        if (r == ref) true
        else { failures += s"$label: ${r.size} patterns, reference has ${ref.size}"; false }
      } catch { case NonFatal(e) => failures += s"$label: $e"; false }
    if (!ok) nFailed += 1
    ok
  }

  /** Mining results checked so far, and how many of them failed. */
  def attempted: Int = nAttempted
  def failed: Int = nFailed

  /** Run one D-SEQ or D-CAND job under its own job group and check its
    * result. The clock runs from the driver call until `collect()` returns;
    * the Spark metrics are read after the job group's `SparkListenerJobEnd`.
    */
  private def sparkJob(algo: String, i: Int, p: Prepared): Option[(Double, GroupMetrics)] = {
    val c = constraints(i)
    jobSeq += 1
    val group = s"$algo-$i-$jobSeq"
    var timed: Option[(Double, GroupMetrics)] = None
    val ok = check(s"$algo ${c.name}")({
      val (rows, secs) = listener.run(group) {
        val t0 = System.nanoTime()
        val rows = (algo match {
          case "dseq"  => Drivers.dSeq(sc, p.db.sequences, p.db.dict, c.patex, c.sigma)
          case "dcand" => Drivers.dCand(sc, p.db.sequences, p.db.dict, c.patex, c.sigma)
        }).collect()
        (rows, (System.nanoTime() - t0) / 1e9)
      }
      timed = Some((secs, listener.await(group)))
      val m = rows.toMap
      if (m.size != rows.length) throw new IllegalStateException("a pattern occurs twice in the result")
      m
    }, p.refs(i))
    if (ok) timed else None
  }

  /** Generate, encode and cache the data, compile the FSTs, compute the
    * reference results with sequential DESQ-DFS, and run one checked warm-up
    * round of every D-SEQ and D-CAND job, so that timed jobs run on
    * JIT-compiled code. Returns the prepared run and the set-up's wall time.
    */
  private def setup(): (Prepared, Double) = {
    val t0 = System.nanoTime()
    val raw = w.generate(spark, seed)
    raw.sequences.cache().count()
    val t1 = System.nanoTime()
    val db = SeqData.encode(raw)
    db.sequences.count()
    raw.sequences.unpersist()
    val t2 = System.nanoTime()
    val local = db.sequences.collect().toIndexedSeq
    val fsts = constraints.map(c => FstCompiler.compile(c.patex, db.dict))
    val weighted = local.map((_, 1L))
    val refs = constraints.indices.map { i =>
      val c = constraints(i)
      DesqDfs.mine(weighted, fsts(i), db.dict, c.sigma, db.dict.maxFrequentFid(c.sigma))
    }
    val p = new Prepared(db, local, weighted, fsts, refs, (t1 - t0) / 1e9, (t2 - t1) / 1e9)
    for (i <- constraints.indices; algo <- Seq("dseq", "dcand")) sparkJob(algo, i, p)
    (p, (System.nanoTime() - t0) / 1e9)
  }

  def run(trace: Boolean): Int = {
    val (metrics, extra) = if (trace) traced() else endToEnd()
    val correct = failed == 0
    failures.foreach(f => Console.err.println(s"MISMATCH $f"))
    for (m <- metrics) println(f"${m.name}%-24s ${fmt(m.value)}%14s ${m.unit}")
    for ((k, v) <- extra) println(f"$k%-24s $v%14s")
    writeResults(trace, metrics, extra, correct)
    val json = metrics.map(m => s""""${m.name}": {"value": ${fmt(m.value)}, "unit": "${m.unit}"}""")
      .mkString("{", ", ", "}")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": $json}""")
    if (correct) 0 else 1
  }

  // ------------------------------------------------------------ end to end

  /** End-to-end metrics, and details that go only into the results file. */
  def endToEnd(): (Seq[Metric], Seq[(String, String)]) = {
    var p: Prepared = null
    val setupTimes = (1 to SetupRepeats).map { _ =>
      if (p != null) p.db.sequences.unpersist()
      val (q, secs) = setup()
      p = q
      secs
    }
    val n = constraints.length
    val times = Array.fill(n, 3)(mutable.ArrayBuffer.empty[Double]) // dseq, dcand, desqdfs
    val shuffle = Array.fill(n, 2)(mutable.ArrayBuffer.empty[Double])
    // Closed loop: one job at a time. An iteration runs every job once; the
    // next one starts if at least half of it is expected to fit in `seconds`.
    val start = System.nanoTime()
    def elapsedS = (System.nanoTime() - start) / 1e9
    var iterations = 0
    while (iterations == 0 || elapsedS * (iterations + 0.5) / iterations <= seconds) {
      for (i <- 0 until n) {
        for ((algo, a) <- Seq("dseq", "dcand").zipWithIndex; (secs, m) <- sparkJob(algo, i, p)) {
          times(i)(a) += secs
          shuffle(i)(a) += m.shuffleBytes / 1e6
        }
        val c = constraints(i)
        check(s"desqdfs ${c.name}")({
          val t0 = System.nanoTime()
          val r = DesqDfs.mine(p.weighted, p.fsts(i), p.db.dict, c.sigma, p.db.dict.maxFrequentFid(c.sigma))
          times(i)(2) += (System.nanoTime() - t0) / 1e9
          r
        }, p.refs(i))
      }
      iterations += 1
    }
    def sumOfMedians(xs: Array[Array[mutable.ArrayBuffer[Double]]], a: Int) =
      xs.iterator.map(x => median(x(a).toSeq)).sum
    val metrics = Seq(
      Metric("setup_s", median(setupTimes), "s"),
      Metric("dseq_s", sumOfMedians(times, 0), "s"),
      Metric("dcand_s", sumOfMedians(times, 1), "s"),
      Metric("desqdfs_s", sumOfMedians(times, 2), "s"),
      Metric("dseq_shuffle_mb", sumOfMedians(shuffle, 0), "MB"),
      Metric("dcand_shuffle_mb", sumOfMedians(shuffle, 1), "MB"))
    val extra = Seq(
      "fail_frac" -> fmt(failed.toDouble / math.max(1, attempted)),
      "iterations" -> iterations.toString,
      "setup_runs_s" -> setupTimes.map(fmt).mkString(",")) ++
      constraints.indices.flatMap { i =>
        Seq("dseq", "dcand", "desqdfs").zipWithIndex.map { case (algo, a) =>
          s"${constraints(i).name}.${algo}_s" -> times(i)(a).map(fmt).mkString(",")
        }
      }
    (metrics, extra)
  }

  // ------------------------------------------------------------- per layer

  /** Per-layer metrics, and details that go only into the results file. */
  def traced(): (Seq[Metric], Seq[(String, String)]) = {
    val (p, _) = setup()
    val dict = p.db.dict

    // fst: median of repeated compiles, summed over the constraints.
    val compileMs = constraints.map { c =>
      median((1 to 25).map { _ =>
        val t0 = System.nanoTime()
        FstCompiler.compile(c.patex, dict)
        (System.nanoTime() - t0) / 1e6
      })
    }.sum

    // shuffle and stages: one round of Spark jobs, observed by the listener.
    val stage = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
    var skew = 1.0
    for (i <- constraints.indices; algo <- Seq("dseq", "dcand"); (_, m) <- sparkJob(algo, i, p)) {
      stage(s"$algo.records") += m.shuffleRecords
      stage(s"$algo.map_s") += m.mapStageMs / 1e3
      stage(s"$algo.reduce_s") += m.reduceStageMs / 1e3
      stage("fetch_wait_s") += m.fetchWaitMs / 1e3
      stage("gc_s") += m.gcMs / 1e3
      skew = math.max(skew, m.reduceTaskSkew)
    }

    // Spark-free replay: untraced to warm the driver thread's code, traced,
    // and untraced again for the overhead. Each constraint's replay is one
    // request: its spans share the constraint's index as run id.
    val tracer = new Tracer(enabled = true)
    var replay: Replay = null
    def replayOnce(t: Tracer): Double = {
      System.gc() // every replay starts from the same, collected heap
      val r = new Replay(dict, t)
      val t0 = System.nanoTime()
      for (i <- constraints.indices) {
        val c = constraints(i)
        t.runId = i
        check(s"replay desqdfs ${c.name}")(r.desqDfs(p.weighted, p.fsts(i), c.sigma), p.refs(i))
        check(s"replay dseq ${c.name}")(r.dSeq(p.local, p.fsts(i), c.sigma), p.refs(i))
        check(s"replay dcand ${c.name}")(r.dCand(p.local, p.fsts(i), c.sigma), p.refs(i))
      }
      replay = r
      (System.nanoTime() - t0) / 1e9
    }
    val untraced = new Tracer(enabled = false)
    replayOnce(untraced)
    val tracedS = replayOnce(tracer)
    val untracedS = replayOnce(untraced)
    val runs = tracer.summary(_ => true)
    def tot(n: String) = runs.get(n).fold(0.0)(_.totalS)
    def mx(n: String) = runs.get(n).fold(0.0)(_.maxS)
    val cnt = replay.counts.withDefaultValue(0L)
    tracer.write(out.resolve(s"${w.name}-spans.csv.gz"))

    val metrics = Seq(
      Metric("data.generate_s", p.generateS, "s"),
      Metric("data.encode_s", p.encodeS, "s"),
      Metric("data.sequences", p.local.length, "count"),
      Metric("data.items", p.local.iterator.map(_.length.toLong).sum, "count"),
      Metric("fst.compile_ms", compileMs, "ms"),
      Metric("fst.states", p.fsts.map(_.numStates).sum, "count"),
      Metric("fst.transitions", p.fsts.map(_.numTransitions).sum, "count"),
      Metric("pivot.grid_s", tot("pivot.grid"), "s"),
      Metric("pivot.rewrite_s", tot("pivot.rewrite"), "s"),
      Metric("pivot.seqs_matched", cnt("pivot.seqs_matched"), "count"),
      Metric("pivot.pairs", cnt("pivot.pairs"), "count"),
      Metric("pivot.items_shipped", cnt("pivot.items_shipped"), "count"),
      Metric("pivot.trim_ratio", cnt("pivot.items_shipped").toDouble / math.max(1L, cnt("pivot.items_original")), "ratio"),
      Metric("nfa.build_s", tot("nfa.build"), "s"),
      Metric("nfa.minimize_s", tot("nfa.minimize"), "s"),
      Metric("nfa.serialize_s", tot("nfa.serialize"), "s"),
      Metric("nfa.built", cnt("nfa.built"), "count"),
      Metric("nfa.distinct", cnt("nfa.distinct"), "count"),
      Metric("nfa.agg_ratio", cnt("nfa.distinct").toDouble / math.max(1L, cnt("nfa.built")), "ratio"),
      Metric("nfa.states_built", cnt("nfa.states_built"), "count"),
      Metric("nfa.states_min", cnt("nfa.states_min"), "count"),
      Metric("nfa.bytes", cnt("nfa.bytes"), "bytes"),
      Metric("shuffle.dseq_records", stage("dseq.records"), "count"),
      Metric("shuffle.dcand_records", stage("dcand.records"), "count"),
      Metric("shuffle.fetch_wait_s", stage("fetch_wait_s"), "s"),
      Metric("stage.dseq_map_s", stage("dseq.map_s"), "s"),
      Metric("stage.dseq_reduce_s", stage("dseq.reduce_s"), "s"),
      Metric("stage.dcand_map_s", stage("dcand.map_s"), "s"),
      Metric("stage.dcand_reduce_s", stage("dcand.reduce_s"), "s"),
      Metric("stage.reduce_task_skew", skew, "ratio"),
      Metric("stage.gc_s", stage("gc_s"), "s"),
      Metric("dfs.partitions", cnt("dfs.partitions"), "count"),
      Metric("dfs.pivot_sum_s", tot("dfs.pivot"), "s"),
      Metric("dfs.pivot_max_s", mx("dfs.pivot"), "s"),
      Metric("dfs.amplification", tot("dfs.pivot") / tot("desqdfs"), "ratio"),
      Metric("nfaminer.deserialize_s", tot("nfaminer.deserialize"), "s"),
      Metric("nfaminer.pivot_sum_s", tot("nfaminer.pivot"), "s"),
      Metric("nfaminer.pivot_max_s", mx("nfaminer.pivot"), "s"),
      Metric("trace.overhead_frac", tracedS / untracedS - 1, "ratio"))
    val selfTimes = runs.toSeq.sortBy(-_._2.selfNs).map { case (n, s) =>
      s"self.$n" -> f"${s.selfS}%.4f s (${s.count} spans)"
    }
    val perConstraint = constraints.indices.flatMap { i =>
      val r = tracer.summary(_ == i)
      Seq("desqdfs", "dfs.pivot", "nfa.build", "nfaminer.pivot").map { n =>
        s"${constraints(i).name}.$n" -> f"${r.get(n).fold(0.0)(_.totalS)}%.4f s"
      }
    }
    (metrics, Seq("spans" -> tracer.size.toString, "replay_traced_s" -> fmt(tracedS),
                  "replay_untraced_s" -> fmt(untracedS)) ++ selfTimes ++ perConstraint)
  }

  // ---------------------------------------------------------------- output

  private def fmt(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString

  private def quote(s: String): String =
    "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n") + "\""

  /** The metrics with the run's metadata, as JSON next to the spans. */
  private def writeResults(trace: Boolean, metrics: Seq[Metric], extra: Seq[(String, String)],
                           correct: Boolean): Unit = {
    val meta = Seq(
      "workload" -> quote(w.name),
      "seed" -> seed.toString,
      "sf" -> fmt(w.sf),
      "constraints" -> constraints.map(c => quote(s"${c.name} ${c.patex}")).mkString("[", ", ", "]"),
      "run_seconds" -> seconds.toString,
      "trace" -> trace.toString,
      "cores" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> quote(sc.master),
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory().toString,
      "java_version" -> quote(System.getProperty("java.version")),
      "spark_version" -> quote(sc.version),
      "git_sha" -> quote(gitSha()),
      "src_main_lines" -> srcMainLines().toString)
    val body = Seq(
      "meta" -> meta.map { case (k, v) => s"${quote(k)}: $v" }.mkString("{", ", ", "}"),
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "failures" -> failures.map(quote).mkString("[", ", ", "]"),
      "metrics" -> metrics.map(m => s"${quote(m.name)}: {\"value\": ${fmt(m.value)}, \"unit\": ${quote(m.unit)}}")
        .mkString("{", ", ", "}"),
      "details" -> extra.map { case (k, v) => s"${quote(k)}: ${quote(v)}" }.mkString("{", ", ", "}"))
    val json = body.map { case (k, v) => s"  ${quote(k)}: $v" }.mkString("{\n", ",\n", "\n}\n")
    Files.write(out.resolve(s"${w.name}-trace${if (trace) 1 else 0}.json"), json.getBytes(StandardCharsets.UTF_8))
  }

  /** Commit of the checkout, read from `.git` directly ("unknown" outside git). */
  private def gitSha(): String = {
    val git = root.resolve(".git")
    def read(p: Path) = new String(Files.readAllBytes(p), StandardCharsets.UTF_8).trim
    try {
      val head = read(git.resolve("HEAD"))
      if (!head.startsWith("ref: ")) head
      else {
        val ref = head.drop(5)
        val loose = git.resolve(ref)
        if (Files.exists(loose)) read(loose)
        else read(git.resolve("packed-refs")).linesIterator.find(_.endsWith(" " + ref))
          .map(_.takeWhile(_ != ' ')).getOrElse("unknown")
      }
    } catch { case NonFatal(_) => "unknown" }
  }

  private def srcMainLines(): Long = {
    val files = Files.walk(root.resolve("src").resolve("main"))
    try files.iterator().asScala.filter(Files.isRegularFile(_))
      .map(f => Files.readAllLines(f, StandardCharsets.UTF_8).size.toLong).sum
    finally files.close()
  }
}
