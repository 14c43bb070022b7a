package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.fst.FstCompiler

/** Sequences as long as the paper's longest inputs (Tab. II: 21 000–44 557
  * items) must not overflow the stack in any miner. The expected results are
  * written out by hand: `BruteForce` is test-scale only.
  */
class LongSequenceSpec extends AnyFunSuite {

  private val n = 20000
  private val patex = "(l0)[.*(l1)]{,1}"
  // l0 first and l1 last, and the reverse; l5 in between.
  private val (dict, db) = TestGen.encodeLocal(
    Seq(Array("l0") ++ Array.fill(n - 2)("l5") ++ Array("l1"),
        Array("l1") ++ Array.fill(n - 2)("l5") ++ Array("l0")),
    TestGen.toyParents)
  private val fst = FstCompiler.compile(patex, dict)
  private val sigma = 1L
  private val maxFid = dict.maxFrequentFid(sigma)
  private val l0 = dict.fid("l0")
  private val l1 = dict.fid("l1")
  private val expected = Map(Pattern(l0) -> 2L, Pattern(l0, l1) -> 1L)

  test(s"pivot grid and rewrite on |T| = $n") {
    val g1 = PivotSearch.grid(db(0), fst, dict, maxFid)
    assert(g1.pivots.toSet == Set(l0, l1))
    for (k <- g1.pivots) assert(PivotSearch.rewrite(db(0), g1, k).length == n)
    val g2 = PivotSearch.grid(db(1), fst, dict, maxFid)
    assert(g2.pivots.toSeq == Seq(l0))
    // Only the final l0 is relevant for pivot l0: the rest is skipped by `.*`.
    assert(PivotSearch.rewrite(db(1), g2, l0).toSeq == Seq(l0))
  }

  test(s"sequential DESQ-DFS on |T| = $n") {
    assert(DesqDfs.mine(db.map((_, 1L)), fst, dict, sigma, maxFid) == expected)
  }

  test(s"pivot DESQ-DFS (D-SEQ local mining) on |T| = $n") {
    assert(TestGen.dSeqLocal(db, dict, patex, sigma) == expected)
    assert(TestGen.dSeqLocal(db, dict, patex, sigma, rewrite = false) == expected)
    val k = math.max(l0, l1)
    assert(DesqDfs.mine(IndexedSeq((db(0), 1L)), fst, dict, sigma, maxFid, pivot = Some(k)) ==
      Map(Pattern(l0) -> 1L, Pattern(l0, l1) -> 1L).filter(_._1.pivot == k))
  }

  test(s"D-CAND NFAs and NfaMiner on |T| = $n") {
    val nfas = Nfa.buildForSequence(db(0), fst, dict, maxFid)
    assert(nfas.values.flatMap(_.language()).toSet == Set(List(l0), List(l0, l1)))
    assert(Nfa.buildForSequence(db(1), fst, dict, maxFid).map { case (k, a) => k -> a.language() } ==
      Map(l0 -> Set(List(l0))))
    assert(TestGen.dCandLocal(db, dict, patex, sigma) == expected)
  }
}
