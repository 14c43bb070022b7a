package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** The reference D-CAND NFA builder: walk the accepting runs of the reference
  * enumeration, insert each run into the tries of its pivots `K(r)` (Th. 1)
  * with items `> k` and infrequent items dropped. Exponential in the number
  * of runs; tests compare `Nfa.buildForSequence` with it.
  */
object ReferenceNfa {

  /** Mutable trie of output-set sequences; inserts dedupe shared prefixes. */
  final class Trie {
    final class Node {
      val children = mutable.LinkedHashMap.empty[List[Int], Node] // label -> child
      var isFinal = false
    }
    val root = new Node

    def insert(run: Seq[Array[Int]]): Unit = {
      var cur = root
      for (set <- run)
        cur = cur.children.getOrElseUpdate(set.toList, new Node)
      cur.isFinal = true
    }

    /** Number the nodes (root = 0, BFS order) and freeze into an [[Nfa]]. */
    def toNfa: Nfa = {
      val nodes = mutable.ArrayBuffer.empty[Node]
      val id = mutable.HashMap.empty[Node, Int]
      def visit(n: Node): Int = id.getOrElseUpdate(n, { nodes += n; nodes.length - 1 })
      visit(root)
      var i = 0
      while (i < nodes.length) {
        nodes(i).children.values.foreach(visit)
        i += 1
      }
      new Nfa(
        nodes.map(_.isFinal).toArray,
        nodes.map(n => n.children.iterator.map { case (l, c) => (l.toArray, id(c)) }.toArray).toArray
      )
    }
  }

  /** Pivot items of a single run (Th. 1): fold `⊕` over the run's σ-filtered
    * output sets. Returns empty if the run generates no all-frequent candidate.
    */
  def pivotsOfRun(run: FstSimulator.Run, maxFid: Int): Array[Int] = {
    var acc: Array[Int] = Array(0) // ε seed: identity of ⊕
    for (outSet <- run) {
      val o = if (maxFid < 0) outSet else outSet.filter(_ <= maxFid) // keeps ε (0)
      if (o.isEmpty) return Array.empty
      acc = PivotSearch.oplus(acc, o)
    }
    acc.filter(_ != 0)
  }

  /** Per-pivot tries of `t`, in run order, minimized if asked. */
  def buildForSequence(
      t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, minimize: Boolean = true
  ): Map[Int, Nfa] = {
    val tries = mutable.HashMap.empty[Int, Trie]
    FstSimulator.foreachAcceptingRun(t, fst, dict) { run =>
      for (k <- pivotsOfRun(run, maxFid)) {
        // Non-ε output sets restricted to frequent items <= k; no set can end
        // up empty (k ∈ K(r) implies every set has a frequent item <= k).
        val restricted = run.iterator
          .filter(os => !(os.length == 1 && os(0) == 0))
          .map(_.filter(w => w != 0 && w <= k && w <= maxFid))
          .toSeq
        tries.getOrElseUpdate(k, new Trie).insert(restricted)
      }
    }
    tries.iterator.map { case (k, trie) =>
      val nfa = trie.toNfa
      k -> (if (minimize) Nfa.minimize(nfa) else nfa)
    }.toMap
  }

  /** `nfa` with the edges of every state sorted by label (lexicographically),
    * the order `Nfa.buildForSequence` emits.
    */
  def canonicalOrder(nfa: Nfa): Nfa =
    new Nfa(nfa.isFinal, nfa.edges.map(_.sortWith((a, b) => java.util.Arrays.compare(a._1, b._1) < 0)))
}
