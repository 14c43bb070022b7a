package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{Ex, TestGen}
import repro.Ex._

/** End-to-end equivalence of the D-SEQ dataflow (map: grid + rewrite;
  * shuffle: group by pivot; reduce: restricted DESQ-DFS) against brute force,
  * plus D-SEQ vs D-CAND cross-checks — all without Spark for speed. The Spark
  * drivers run the identical code paths (see DriversSpec).
  */
class LocalDataflowSpec extends AnyFunSuite {

  test("D-SEQ local dataflow reproduces the running example (σ=2)") {
    val got = TestGen.dSeqLocal(db, dict, piEx, 2)
    assert(got == Map(
      Pattern(a1, a1, b) -> 2L,
      Pattern(a1, A, b) -> 2L,
      Pattern(a1, b) -> 3L))
  }

  test("D-CAND local dataflow reproduces the running example (σ=2)") {
    val got = TestGen.dCandLocal(db, dict, piEx, 2)
    assert(got == Map(
      Pattern(a1, a1, b) -> 2L,
      Pattern(a1, A, b) -> 2L,
      Pattern(a1, b) -> 3L))
  }

  for ((name, patex) <- TestGen.patterns; seed <- Seq(51, 52)) {
    test(s"D-SEQ local == brute force [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      for (sigma <- Seq(1L, 2L, 4L)) {
        val got = TestGen.dSeqLocal(dbr, d, patex, sigma)
        val want = BruteForce.mine(dbr, patex, sigma, d)
        assert(got == want, s"sigma=$sigma")
      }
    }
  }

  for ((name, patex) <- TestGen.patterns.take(6); seed <- Seq(53)) {
    test(s"D-SEQ ablations (no rewrite / no early stop) == brute force [$name]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      val sigma = 2L
      val want = BruteForce.mine(dbr, patex, sigma, d)
      assert(TestGen.dSeqLocal(dbr, d, patex, sigma, rewrite = false) == want, "no rewrite")
    }
  }

  for ((name, patex) <- TestGen.patterns; seed <- Seq(54)) {
    test(s"D-SEQ == D-CAND [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 40), TestGen.toyParents)
      val sigma = 3L
      assert(TestGen.dSeqLocal(dbr, d, patex, sigma) == TestGen.dCandLocal(dbr, d, patex, sigma))
    }
  }

  test("an FST with more than 1024 states: DESQ-DFS, D-SEQ and D-CAND == brute force") {
    val patex = "(l0)[.*(l1)]{1,1100}"
    val (d, dbr) = TestGen.encodeLocal(
      Seq(Array("l0", "l5", "l1", "l1"), Array("l0", "l1"), Array("l1", "l0")), TestGen.toyParents)
    val f = repro.fst.FstCompiler.compile(patex, d)
    assert(f.numStates > 1024)
    val want = BruteForce.mine(dbr, f, 1, d)
    assert(want == Map(Pattern(d.fid("l0"), d.fid("l1")) -> 2L,
                       Pattern(d.fid("l0"), d.fid("l1"), d.fid("l1")) -> 1L))
    assert(DesqDfs.mine(dbr.map((_, 1L)), f, d, 1, d.maxFrequentFid(1)) == want)
    assert(TestGen.dSeqLocal(dbr, d, patex, 1) == want)
    assert(TestGen.dCandLocal(dbr, d, patex, 1) == want)
  }

  test("longer random sequences: D-SEQ == D-CAND == brute force on πex-style") {
    val (d, dbr) = TestGen.encodeLocal(
      TestGen.randomDb(99, nSeqs = 20, maxLen = 14), TestGen.toyParents)
    for ((_, patex) <- TestGen.patterns.take(8)) {
      val want = BruteForce.mine(dbr, patex, 2, d)
      assert(TestGen.dSeqLocal(dbr, d, patex, 2) == want)
      assert(TestGen.dCandLocal(dbr, d, patex, 2) == want)
    }
  }
}
