package perfbench

import repro.core.{DesqDfs, Nfa, NfaMiner, NfaSerializer, Pattern, PivotSearch}
import repro.dict.Dictionary
import repro.fst.Fst

import scala.collection.mutable

/** Single-thread, Spark-free replay of the D-SEQ and D-CAND dataflow of
  * `Drivers.dSeq` / `Drivers.dCand`: the same layer calls in the same order,
  * with an in-memory hash map in place of the shuffle. Spans go around each
  * layer call; counts are taken at the same boundaries.
  */
final class Replay(dict: Dictionary, tracer: Tracer) {

  /** Work counts of the replay, summed over the constraints replayed. */
  val counts: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  private def count(key: String, n: Long): Unit = counts(key) = counts.getOrElse(key, 0L) + n

  /** Sequential DESQ-DFS, the Tab. V baseline. */
  def desqDfs(db: IndexedSeq[(Array[Int], Long)], fst: Fst, sigma: Long): Map[Pattern, Long] =
    tracer.span("desqdfs")(DesqDfs.mine(db, fst, dict, sigma, dict.maxFrequentFid(sigma)))

  def dSeq(db: IndexedSeq[Array[Int]], fst: Fst, sigma: Long): Map[Pattern, Long] =
    tracer.span("dseq") {
      val maxFid = dict.maxFrequentFid(sigma)
      val partitions = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Array[Int]]]
      tracer.span("dseq.map") {
        for (t <- db) {
          val g = tracer.span("pivot.grid")(PivotSearch.grid(t, fst, dict, maxFid))
          if (g.pivots.nonEmpty) count("pivot.seqs_matched", 1)
          for (k <- g.pivots) {
            val r = tracer.span("pivot.rewrite")(PivotSearch.rewrite(t, g, k))
            count("pivot.pairs", 1)
            count("pivot.items_shipped", r.length)
            count("pivot.items_original", t.length)
            partitions.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r
          }
        }
      }
      count("dfs.partitions", partitions.size)
      tracer.span("dseq.reduce") {
        val out = mutable.HashMap.empty[Pattern, Long]
        for ((k, seqs) <- partitions)
          out ++= tracer.span("dfs.pivot") {
            DesqDfs.mine(seqs.iterator.map((_, 1L)).toIndexedSeq, fst, dict, sigma, maxFid,
                         pivot = Some(k))
          }
        out.toMap
      }
    }

  def dCand(db: IndexedSeq[Array[Int]], fst: Fst, sigma: Long): Map[Pattern, Long] =
    tracer.span("dcand") {
      val maxFid = dict.maxFrequentFid(sigma)
      val weighted = mutable.HashMap.empty[(Int, NfaSerializer.Bytes), Long]
      tracer.span("dcand.map") {
        for (t <- db) {
          val tries = tracer.span("nfa.build")(Nfa.buildForSequence(t, fst, dict, maxFid, minimize = false))
          for ((k, trie) <- tries) {
            val nfa = tracer.span("nfa.minimize")(Nfa.minimize(trie))
            val bytes = tracer.span("nfa.serialize")(NfaSerializer.serialize(nfa))
            count("nfa.built", 1)
            count("nfa.states_built", trie.numStates)
            count("nfa.states_min", nfa.numStates)
            count("nfa.bytes", bytes.size)
            weighted((k, bytes)) = weighted.getOrElse((k, bytes), 0L) + 1L
          }
        }
      }
      count("nfa.distinct", weighted.size)
      tracer.span("dcand.reduce") {
        val out = mutable.HashMap.empty[Pattern, Long]
        for ((k, nfas) <- weighted.toSeq.groupBy(_._1._1)) {
          val decoded = tracer.span("nfaminer.deserialize") {
            nfas.map { case ((_, b), w) => (NfaSerializer.deserialize(b), w) }.toIndexedSeq
          }
          out ++= tracer.span("nfaminer.pivot")(NfaMiner.mine(decoded, sigma, k))
        }
        out.toMap
      }
    }
}
