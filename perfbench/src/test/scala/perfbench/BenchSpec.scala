package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BruteForce, DesqDfs}
import repro.data.SeqData

import java.nio.file.{Files, Paths}

/** Checks of the benchmark itself: its reference miner against brute force,
  * and the determinism of every count it reports.
  */
class BenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors()}]")
      .appName("perfbench-test")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  override def afterAll(): Unit = spark.stop()

  private val root = Paths.get("..").toAbsolutePath.normalize

  for (w <- Workloads.all) test(s"sequential DESQ-DFS == brute force on a sample of ${w.name}") {
    val db = SeqData.encode(w.generate(spark, seed = 7))
    val all = db.sequences.collect()
    val sample = all.filter(_.length <= 12).take(200).toIndexedSeq
    for (c <- w.constraints) {
      val sigma = math.max(2L, c.sigma * sample.length / all.length)
      val expected = BruteForce.mine(sample, c.patex, sigma, db.dict)
      val fst = repro.fst.FstCompiler.compile(c.patex, db.dict)
      val got = DesqDfs.mine(sample.map((_, 1L)), fst, db.dict, sigma, db.dict.maxFrequentFid(sigma))
      assert(got == expected, s"${c.name} at σ=$sigma")
      assert(expected.nonEmpty, s"${c.name} at σ=$sigma finds nothing on the sample")
    }
  }

  test("the same seed reproduces every count exactly; another seed is still correct") {
    val w = Workloads.byName("nyt-selective").get
    val out = Files.createTempDirectory("perfbench-test")
    def counts(seed: Long): Map[String, Double] = {
      val b = new Bench(spark, w, seed, 1, root, out)
      val (metrics, _) = b.traced()
      assert(b.failed == 0 && b.attempted > 0)
      metrics.filter(m => m.unit == "count" || m.unit == "bytes" || m.name.endsWith("ratio"))
        .map(m => m.name -> m.value).toMap
    }
    val first = counts(1)
    val again = counts(1)
    for (k <- Seq("shuffle.dseq_records", "shuffle.dcand_records", "pivot.pairs",
                  "pivot.items_shipped", "nfa.built", "nfa.distinct", "data.sequences"))
      assert(first.contains(k), k)
    assert(first == again)
    counts(2)

    val e2e = new Bench(spark, w, 1, 1, root, out)
    val (m1, _) = e2e.endToEnd()
    val (m2, _) = e2e.endToEnd()
    for (k <- Seq("dseq_shuffle_mb", "dcand_shuffle_mb"))
      assert(m1.find(_.name == k) == m2.find(_.name == k), k)
    assert(e2e.failed == 0)
  }
}
