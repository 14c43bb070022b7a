package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** NFA over output sets, used by D-CAND to represent `ρk(T)` — the candidate
  * subsequences of input sequence `T` with pivot item `k` — in compressed form
  * (Sec. VI-A).
  *
  * States are `0 until numStates`, state 0 initial. An edge is labeled with an
  * output set (sorted fid array): following it consumes one output item chosen
  * from the set. The NFA accepts a candidate iff some path from the root to a
  * final state spells it.
  */
final class Nfa(
    val isFinal: Array[Boolean],
    val edges: Array[Array[(Array[Int], Int)]] // per state: (label set, target)
) extends Serializable {
  def numStates: Int = isFinal.length
  def numEdges: Int = edges.iterator.map(_.length).sum

  /** Enumerate the accepted language (distinct candidate sequences). Only for
    * tests/small NFAs — mining works on the NFA directly.
    */
  def language(cap: Int = 1 << 20): Set[List[Int]] = {
    val out = mutable.Set.empty[List[Int]]
    def rec(q: Int, acc: List[Int]): Unit = {
      if (out.size > cap) throw new IllegalStateException("language too large")
      if (isFinal(q)) out += acc.reverse
      for ((label, t) <- edges(q); w <- label) rec(t, w :: acc)
    }
    rec(0, Nil)
    out.toSet
  }
}

object Nfa {

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

  /** Revuz-style minimization of an acyclic NFA (the trie): merge states with
    * identical (finality, outgoing transition multiset) bottom-up, children
    * first, so equivalent suffixes collapse. Linear in the trie size. The
    * result accepts exactly the same language.
    */
  def minimize(nfa: Nfa): Nfa = {
    val n = nfa.numStates
    // topological order (the trie/DAG has edges from lower to unknown ids;
    // compute heights via DFS)
    val order = {
      val state = new Array[Byte](n)
      val out = mutable.ArrayBuffer.empty[Int]
      def visit(q: Int): Unit = {
        if (state(q) != 0) return
        state(q) = 1
        for ((_, t) <- nfa.edges(q)) visit(t)
        state(q) = 2
        out += q
      }
      visit(0)
      (0 until n).foreach(visit)
      out.toArray // children before parents
    }
    val canon = Array.tabulate(n)(identity)
    val bySig = mutable.HashMap.empty[(Boolean, Set[(List[Int], Int)]), Int]
    for (q <- order) {
      val sig = (nfa.isFinal(q),
        nfa.edges(q).iterator.map { case (l, t) => (l.toList, canon(t)) }.toSet)
      canon(q) = bySig.getOrElseUpdate(sig, q)
    }
    // Renumber surviving states; root first.
    val keep = (0 until n).filter(q => canon(q) == q)
    val newId = mutable.HashMap.empty[Int, Int]
    newId(canon(0)) = 0
    for (q <- keep if !newId.contains(q)) newId(q) = newId.size
    val isFinal = new Array[Boolean](newId.size)
    val edges = Array.fill(newId.size)(mutable.LinkedHashSet.empty[(List[Int], Int)])
    for (q <- keep) {
      val nq = newId(q)
      isFinal(nq) = nfa.isFinal(q)
      for ((l, t) <- nfa.edges(q)) edges(nq) += ((l.toList, newId(canon(t))))
    }
    new Nfa(isFinal, edges.map(_.iterator.map { case (l, t) => (l.toArray, t) }.toArray))
  }

  /** Build the per-pivot NFAs for input sequence `t` (Sec. VI-A): walk the
    * accepting runs of its [[FstSimulator.Product]], insert each run into the
    * tries of its pivots `K(r)` with items `> k` and infrequent items dropped,
    * then minimize each trie.
    *
    * @return map pivot -> minimized NFA; empty if `t` has no accepting run.
    */
  def buildForSequence(
      t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, minimize: Boolean = true
  ): Map[Int, Nfa] = {
    val tries = mutable.HashMap.empty[Int, Trie]
    FstSimulator.product(t, fst, dict).foreachRun { run =>
      val pivots = PivotSearch.pivotsOfRun(run, maxFid)
      for (k <- pivots) {
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
}
