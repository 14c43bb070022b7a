package perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{RawSeqDB, SeqData}
import repro.eval.Constraints
import repro.eval.Constraints.Constraint

/** One benchmark workload: a synthetic corpus at a scale factor and the
  * constraints mined on it.
  *
  * σ values are stated for scale factor `sigmaSf` and scaled in proportion
  * to `sf`, as `Tables.scalabilityTable` does, so selectivity stays the same.
  */
final case class Workload(
    name: String,
    dataset: String,
    sf: Double,
    sigmaSf: Double,
    sigmas: Seq[(Long, Long => Constraint)]
) {
  val constraints: Seq[Constraint] = sigmas.map { case (sigma, make) =>
    make(math.max(2L, math.round(sigma * sf / sigmaSf)))
  }

  def generate(spark: SparkSession, seed: Long): RawSeqDB = dataset match {
    case "nyt"   => SeqData.nytLite(spark, sf, seed)
    case "amznF" => Workloads.relabelProducts(SeqData.amznLiteF(spark, sf), seed)
    case "cw"    => SeqData.cwLite(spark, sf, seed)
  }
}

object Workloads {
  import Constraints._

  /** Why each workload was chosen is recorded in BENCHMARK.json. */
  val all: Seq[Workload] = Seq(
    // Short sentences and selective constraints: the map phase and per-job
    // Spark overhead dominate, the reduce phase barely runs.
    Workload("nyt-selective", "nyt", sf = 0.25, sigmaSf = 2.0,
      Seq(20L -> n1 _, 40L -> n2 _, 20L -> n3 _, 200L -> n4 _, 200L -> n5 _)),
    // Loose hierarchical constraints on long customer sequences: D-SEQ's
    // per-pivot mining at the low σ, D-CAND's σ-independent NFA build at the
    // high σ. T3(25), from the repository's Tab. IV battery, replaces
    // T3(12,1,5) at SF 0.25: here T3(12) would scale to σ = 2, and at SF 0.0625,
    // where it scales to σ = 3, one round of its jobs took about 8 s and its
    // job times moved by about 20 % between runs.
    Workload("amznF-loose", "amznF", sf = 0.03125, sigmaSf = 0.25,
      Seq(25L -> (t3(_, 1, 5)), 50L -> (t3(_, 1, 5)))),
    // Flat vocabulary, no hierarchy, the most items per sequence: shuffle
    // volume, NFA aggregation and per-item map cost.
    Workload("cw-flat", "cw", sf = 0.0625, sigmaSf = 0.25,
      Seq(25L -> (t2(_, 0, 5)), 100L -> (t2(_, 0, 5))))
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Permute product identities within each department, seeded.
    *
    * On the AMZN stand-in a few long customer sequences decide most of the
    * mining cost, and drawing them anew per seed moved job times by up to 2x
    * between seeds. So the generator's own seed fixes the customers (their
    * sequence lengths and home departments), and the benchmark seed moves each
    * product to another product's place in the same department: items, their
    * subcategory and category, item frequencies and hence the frequent
    * patterns all change with the seed, the length profile does not.
    */
  def relabelProducts(raw: RawSeqDB, seed: Long): RawSeqDB = {
    val r = new java.util.Random(seed)
    val relabel: Map[String, String] = SeqData.AmznVocab.prodsByDept.toSeq.sortBy(_._1).flatMap {
      case (_, products) =>
        val shuffled = products.clone()
        for (i <- shuffled.indices.reverse) {
          val j = r.nextInt(i + 1)
          val t = shuffled(i); shuffled(i) = shuffled(j); shuffled(j) = t
        }
        products.zip(shuffled)
    }.toMap
    RawSeqDB(raw.sequences.map(_.map(relabel)), raw.parents)
  }
}
