package repro.fst

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.dict.Dictionary

/** The [[FstSimulator.Product]] kernel against the reference enumeration: its
  * edges are exactly the edges on the accepting runs of `foreachAcceptingRun`.
  */
class ProductSpec extends AnyFunSuite {

  /** The accepting runs as transition paths, pruned with the reference
    * `reachFinal` and tried in `fst.byState` order, as `foreachAcceptingRun`
    * does.
    */
  private def referencePaths(t: Array[Int], fst: Fst, dict: Dictionary): Seq[List[Transition]] = {
    val reach = FstSimulator.reachFinal(t, fst, dict)
    def rec(i: Int, q: Int): Seq[List[Transition]] =
      if (i == t.length) { if (fst.isFinal(q)) Seq(Nil) else Nil }
      else fst.byState(q).toSeq
        .filter(tr => tr.in.matches(t(i), dict) && reach(i + 1)(tr.to))
        .flatMap(tr => rec(i + 1, tr.to).map(tr :: _))
    rec(0, fst.initial)
  }

  private def lists(runs: Seq[FstSimulator.Run]): Seq[List[List[Int]]] =
    runs.map(_.map(_.toList).toList)

  for ((name, patex) <- TestGen.patterns; seed <- Seq(401L, 402L)) {
    test(s"Product edges == edges on the reference accepting runs [$name, seed=$seed]") {
      val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      val fst = FstCompiler.compile(patex, dict)
      for (t <- db) {
        val runs = FstSimulator.acceptingRuns(t, fst, dict)
        val paths = referencePaths(t, fst, dict)
        assert(lists(paths.map(_.zipWithIndex.map { case (tr, i) => tr.out.outputs(t(i), dict) }.toIndexedSeq)) ==
          lists(runs), "reference paths are foreachAcceptingRun's runs")

        val p = FstSimulator.product(t, fst, dict)
        val want = paths.flatMap(_.zipWithIndex.map { case (tr, i) => (i, tr.from, tr.to) }).toSet
        val got = t.indices.flatMap(i => p.edgesAt(i).map(e => (i, p.trans(e).from, p.trans(e).to))).toSet
        assert(got == want, s"t=${dict.decode(t)}")
        assert(p.accepting == runs.nonEmpty)
        if (runs.isEmpty) assert(p.numEdges == 0)
        for (i <- t.indices; e <- p.edgesAt(i))
          assert(p.out(e).sameElements(p.trans(e).out.outputs(t(i), dict)))
      }
    }
  }

  test("a sequence without an accepting run gives an empty Product") {
    val (dict, db) = TestGen.encodeLocal(Seq(Array("l5", "l1", "l0"), Array("l0", "l1")), TestGen.toyParents)
    val fst = FstCompiler.compile("l0(.^)l1", dict)
    val p = FstSimulator.product(db(0), fst, dict)
    assert(FstSimulator.acceptingRuns(db(0), fst, dict).isEmpty)
    assert(!p.accepting && p.numEdges == 0)
    assert(!FstSimulator.product(db(1), fst, dict).accepting)
  }
}
