package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.fst.{FstCompiler, FstSimulator}

/** `Nfa.buildForSequence` (subset construction over the Product) against the
  * run-based [[ReferenceNfa]] builder, plus the inputs only the former can
  * handle: more runs than the reference enumeration allows, and NFAs too deep
  * for a recursive minimizer or serializer.
  */
class NfaBuildSpec extends AnyFunSuite {

  private def bytes(nfa: Nfa): Seq[Byte] = NfaSerializer.serialize(nfa).bytes.toSeq

  for ((name, patex) <- TestGen.patterns; seed <- Seq(601L, 602L)) {
    test(s"serialized NFAs == minimized reference tries in canonical order [$name, seed=$seed]") {
      val (d, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 15), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (t <- db; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val got = Nfa.buildForSequence(t, f, d, maxFid)
        val want = ReferenceNfa.buildForSequence(t, f, d, maxFid, minimize = false)
        assert(got.keySet == want.keySet, s"t=${t.map(d.name).mkString(" ")} sigma=$sigma")
        for (k <- got.keySet)
          assert(bytes(got(k)) == bytes(Nfa.minimize(ReferenceNfa.canonicalOrder(want(k)))),
            s"t=${t.map(d.name).mkString(" ")} sigma=$sigma k=${d.name(k)}")
      }
    }
  }

  test("equal pivot-k languages give equal serialized NFAs, whatever the run order") {
    // In this database m0 and top are both in every sequence; m0 has the
    // smaller fid. Under (.^) the runs of `l0 l5` output {top, m1, l5}, then
    // {m0, top, l0}; those of `l4 l2` output {m0, top, l2}, then {top, m1, l4}.
    // Restricted to pivot top, both are the labels {top} and {m0, top}, in
    // opposite order.
    val (d, db) = TestGen.encodeLocal(TestGen.randomDb(2, nSeqs = 15), TestGen.toyParents)
    val f = FstCompiler.compile("(.^)", d)
    val maxFid = d.maxFrequentFid(1)
    val k = d.fid("top")
    val Seq(t1, t2) = Seq("l0 l5", "l4 l2").map(s => db.find(_.map(d.name).mkString(" ") == s).get)
    def cands(t: Array[Int]) = FstSimulator.candidates(t, f, d, maxFid).filter(_.max == k)
    assert(cands(t1) == cands(t2))
    assert(bytes(ReferenceNfa.buildForSequence(t1, f, d, maxFid)(k)) !=
      bytes(ReferenceNfa.buildForSequence(t2, f, d, maxFid)(k)), "runs in the same order")
    assert(bytes(Nfa.buildForSequence(t1, f, d, maxFid)(k)) == bytes(Nfa.buildForSequence(t2, f, d, maxFid)(k)))
  }

  // 45 copies of one item: sum over j = 1..5 of C(45, j) > 2^20 accepting runs.
  private val many = 45
  private val gaps = "(.)[.*(.)]{,4}"
  private val (gDict, gDb) =
    TestGen.encodeLocal(Seq(Array.fill(many)("l0"), Array.fill(many)("l0")), TestGen.toyParents)
  private val gFst = FstCompiler.compile(gaps, gDict)
  private val a = gDict.fid("l0")

  test(s"$many identical items under $gaps: more runs than the reference enumeration allows") {
    assertThrows[IllegalStateException](FstSimulator.foreachAcceptingRun(gDb(0), gFst, gDict)(_ => ()))
    val nfas = Nfa.buildForSequence(gDb(0), gFst, gDict, gDict.maxFrequentFid(2))
    assert(nfas.keySet == Set(a))
    assert(nfas(a).language() == (1 to 5).map(List.fill(_)(a)).toSet)
  }

  test(s"$many identical items under $gaps: NfaMiner == DESQ-DFS with σ = 2") {
    val sigma = 2L
    val maxFid = gDict.maxFrequentFid(sigma)
    val want = DesqDfs.mine(gDb.map((_, 1L)), gFst, gDict, sigma, maxFid)
    assert(want == (1 to 5).map(j => Pattern(Array.fill(j)(a)) -> 2L).toMap)
    assert(TestGen.dCandLocal(gDb, gDict, gaps, sigma) == want)
  }

  test("minimize, serialize and deserialize a 100 000-state chain") {
    val n = 100000
    val chain = new Nfa(
      Array.tabulate(n)(q => q == n - 1 || q % 7 == 3),
      Array.tabulate(n)(q => if (q == n - 1) Array.empty[(Array[Int], Int)] else Array((Array(1 + q % 5), q + 1))))
    val min = Nfa.minimize(chain)
    assert(min.numStates == n && min.numEdges == n - 1)
    val rt = NfaSerializer.deserialize(NfaSerializer.serialize(min))
    assert(rt.isFinal.toSeq == chain.isFinal.toSeq)
    assert(rt.edges.map(_.map { case (l, t) => (l.toSeq, t) }.toSeq).toSeq ==
      chain.edges.map(_.map { case (l, t) => (l.toSeq, t) }.toSeq).toSeq)
  }
}
