package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.immutable.ArraySeq
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

  /** Revuz-style minimization of an acyclic NFA: bottom-up, children first,
    * merge states with the same finality and the same edge list (label,
    * merged target) in the same order, so equivalent suffixes collapse. Linear
    * in the NFA size. The result accepts exactly the same language; on the
    * label-sorted DFAs of [[buildForSequence]] it is the minimal DFA.
    */
  def minimize(nfa: Nfa): Nfa = {
    val n = nfa.numStates
    // DFS post-order, children before parents, with an explicit stack of
    // (state, next edge) so that no NFA is too deep for the call stack.
    val order = {
      val seen = new Array[Boolean](n)
      val out = new mutable.ArrayBuilder.ofInt
      val stack = new Array[Int](n)
      val next = new Array[Int](n)
      for (root <- 0 until n if !seen(root)) {
        seen(root) = true
        stack(0) = root; next(0) = 0
        var top = 0
        while (top >= 0) {
          val q = stack(top)
          if (next(top) < nfa.edges(q).length) {
            val t = nfa.edges(q)(next(top))._2
            next(top) += 1
            if (!seen(t)) { seen(t) = true; top += 1; stack(top) = t; next(top) = 0 }
          } else { out += q; top -= 1 }
        }
      }
      out.result()
    }
    val canon = Array.tabulate(n)(identity)
    val bySig = mutable.HashMap.empty[Seq[Int], Int]
    for (q <- order) {
      val sig = new mutable.ArrayBuilder.ofInt // finality, then (|label|, label, target) per edge
      sig += (if (nfa.isFinal(q)) 1 else 0)
      for ((l, t) <- nfa.edges(q)) { sig += l.length; sig ++= l; sig += canon(t) }
      canon(q) = bySig.getOrElseUpdate(ArraySeq.unsafeWrapArray(sig.result()), q)
    }
    // Renumber surviving states; root first.
    val keep = canon(0) +: (0 until n).filter(q => canon(q) == q && q != canon(0))
    val newId = new Array[Int](n)
    for ((q, i) <- keep.zipWithIndex) newId(q) = i
    new Nfa(keep.map(nfa.isFinal).toArray,
      keep.map(q => nfa.edges(q).map { case (l, t) => (l, newId(canon(t))) }).toArray)
  }

  /** Most DFA states of one (sequence, pivot) NFA; more raise an IllegalStateException. */
  private val MaxStates = 1 << 16

  private val byLabel = Ordering.fromLessThan[Array[Int]](java.util.Arrays.compare(_, _) < 0)

  /** Build the per-pivot NFAs for input sequence `t` (Sec. VI-A): one
    * [[FstSimulator.Product]], `K(T)` from its pivot grid, then one subset
    * construction per pivot `k` (see [[PivotDfa]]), minimized.
    *
    * @return map pivot -> NFA; empty if `t` has no accepting run.
    */
  def buildForSequence(
      t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int, minimize: Boolean = true
  ): Map[Int, Nfa] = {
    val p = FstSimulator.product(t, fst, dict)
    val dfa = new PivotDfa(p)
    PivotSearch.grid(p, maxFid).pivots.iterator
      .map(k => k -> (if (minimize) Nfa.minimize(dfa.build(k)) else dfa.build(k))).toMap
  }

  /** Subset construction of the pivot-k NFAs of one [[FstSimulator.Product]].
    *
    * Its nodes are `(i, q, b)`: grid state `(i, q)`, and whether the run has
    * output `k` so far (`b`). An edge may be taken iff its smallest output is
    * `<= k` (ε counts as 0); its label is its output set restricted to
    * `(0, k]`, and it sets `b` iff it can output `k`. The NFA accepts the label
    * sequences of the paths from `(0, initial, 0)` to `(n, final, 1)` — the
    * σ-restricted runs `r` with `k ∈ K(r)` (Th. 1). It is a DFA over label sets
    * whose states are ε-closed node sets and whose edges are sorted by label,
    * so equal languages give equal minimized, serialized NFAs.
    */
  private final class PivotDfa(p: FstSimulator.Product) {
    private val nq = p.fst.numStates
    private val n = p.length
    private def node(i: Int, q: Int, b: Int): Int = (i * nq + q) * 2 + b
    private val live = new Array[Boolean](node(n + 1, 0, 0)) // node reaches (n, final, 1)
    private val marks = new Array[Int](live.length) // == stamp: in the current closure
    private var stamp = 0
    private val buf = new Array[Int](live.length) // closure nodes, also its work queue
    private var size = 0 // nodes in buf

    // Labels interned by content, shared by all pivots; ids below numOuts are
    // the output sets of the edges.
    private val labels = mutable.ArrayBuffer.empty[Array[Int]]
    private val labelIds = mutable.HashMap.empty[Seq[Int], Int]
    private def intern(l: Array[Int]): Int =
      labelIds.getOrElseUpdate(ArraySeq.unsafeWrapArray(l), { labels += l; labels.length - 1 })
    private val outOf = Array.tabulate(p.numEdges)(e => intern(p.out(e)))
    private val numOuts = labels.length
    private val hit = new Array[Boolean](numOuts) // output set contains k
    private val labelOf = new Array[Int](numOuts) // its label id + 1 for pivot k; 0 = not yet

    // The edges leaving node x are first(x) until stop(x); edge e leads to next(e, b).
    private def first(x: Int): Int = p.start(x >> 1)
    private def stop(x: Int): Int = p.start((x >> 1) + 1)
    private def next(e: Int, b: Int): Int = 2 * p.to(e) + b
    private def push(x: Int): Unit =
      if (live(x) && marks(x) != stamp) { marks(x) = stamp; buf(size) = x; size += 1 }

    def build(k: Int): Nfa = {
      java.util.Arrays.fill(live, false)
      java.util.Arrays.fill(labelOf, 0)
      for (u <- 0 until numOuts) hit(u) = java.util.Arrays.binarySearch(labels(u), k) >= 0
      for (q <- 0 until nq) live(node(n, q, 1)) = p.fst.isFinal(q)
      var x = node(n, 0, 0) - 2 // (x, x + 1) = (i, q, 0), (i, q, 1), backwards
      while (x >= 0) {
        var e = first(x)
        while (e < stop(x)) {
          if (p.out(e)(0) <= k) {
            if (live(next(e, 1))) live(x + 1) = true
            if (live(next(e, if (hit(outOf(e))) 1 else 0))) live(x) = true
          }
          e += 1
        }
        x -= 2
      }
      def labelId(u: Int): Int = {
        if (labelOf(u) == 0) {
          val r = java.util.Arrays.binarySearch(labels(u), k)
          val m = if (r >= 0) r + 1 else -r - 1
          labelOf(u) = 1 + (if (m == labels(u).length) u else intern(java.util.Arrays.copyOf(labels(u), m)))
        }
        labelOf(u) - 1
      }

      // DFA states: sorted ε-closed node sets, numbered in discovery order.
      val sets = mutable.ArrayBuffer.empty[Array[Int]]
      val ids = mutable.HashMap.empty[Seq[Int], Int]
      /** The state of the ε-closure of the nodes in the low halves of `seeds(from until to)`. */
      def state(seeds: Array[Long], from: Int, to: Int): Int = {
        stamp += 1
        size = 0
        for (j <- from until to) push(seeds(j).toInt)
        var j = 0
        while (j < size) {
          val x = buf(j)
          for (e <- first(x) until stop(x)) if (p.out(e)(0) == 0) push(next(e, x & 1))
          j += 1
        }
        val set = java.util.Arrays.copyOf(buf, size)
        java.util.Arrays.sort(set)
        ids.getOrElseUpdate(ArraySeq.unsafeWrapArray(set), {
          if (sets.length == MaxStates) throw new IllegalStateException(s"more than $MaxStates NFA states for pivot $k")
          sets += set; sets.length - 1
        })
      }

      // Per state, breadth-first: its edges as (label id << 32 | target state).
      val moves = mutable.ArrayBuffer.empty[Array[Long]]
      val pairs = new mutable.ArrayBuilder.ofLong // (label id << 32 | target node)
      state(Array(node(0, p.fst.initial, 0).toLong), 0, 1)
      while (moves.length < sets.length) {
        pairs.clear()
        for (x <- sets(moves.length); e <- first(x) until stop(x)) {
          val o = p.out(e)
          if (o(0) != 0 && o(0) <= k) {
            val y = next(e, if (hit(outOf(e))) 1 else x & 1)
            if (live(y)) pairs += (labelId(outOf(e)).toLong << 32) | y
          }
        }
        val ps = pairs.result()
        java.util.Arrays.sort(ps)
        val ms = new mutable.ArrayBuilder.ofLong
        var j = 0
        while (j < ps.length) {
          var end = j + 1
          while (end < ps.length && (ps(end) >>> 32) == (ps(j) >>> 32)) end += 1
          ms += (ps(j) >>> 32 << 32) | state(ps, j, end)
          j = end
        }
        moves += ms.result()
      }
      new Nfa(
        sets.iterator.map(_.last >= node(n, 0, 0)).toArray, // holds a node at position n
        moves.iterator.map(_.map(m => (labels((m >>> 32).toInt), m.toInt)).sortBy(_._1)(byLabel)).toArray)
    }
  }
}
