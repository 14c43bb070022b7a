package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** DESQ-DFS: pattern-growth mining under a DESQ subsequence constraint
  * (Sec. V-C; originally from the DESQ paper [5]).
  *
  * The search tree grows a prefix one output item at a time over the
  * [[Graph]]s of weighted sequences. Each node holds a projected database of
  * `(T, node)` snapshots — walks through `T`'s graph that have produced
  * exactly the node's prefix. A prefix is a complete candidate for `T` if some
  * snapshot stands at an accepting graph node. The same search mines D-CAND's
  * NFAs ([[NfaMiner]]).
  *
  * [[mine]] searches the [[FstSimulator.Product]] of each sequence: a node is
  * a grid state `(pos, state)`, and it accepts if the FST can consume the rest
  * of `T` producing only ε. With `pivot = Some(k)` it runs D-SEQ's restricted
  * local mining: prefixes use only items `<= k`, only sequences containing `k`
  * are emitted, and the early-stopping heuristic skips snapshots that are past
  * the last position of `T` able to output `k` while the prefix lacks `k`.
  * The unrestricted variant (`pivot = None`) is the sequential DESQ-DFS
  * baseline of Tab. V.
  */
object DesqDfs {

  /** A weighted acyclic output graph in CSR form: the edges of node `x` are
    * `start(x) until start(x + 1)`; edge `e` leads to node `to(e)` and outputs
    * one item of `out(e)` (0 = ε). A snapshot may stop at `x` iff `accept(x)`.
    * Snapshots at nodes past `cutoff` are dropped while the prefix lacks the
    * pivot.
    */
  final class Graph(val start: Array[Int], val to: Array[Int], val out: Array[Array[Int]],
                    val accept: Array[Boolean], val weight: Long, val cutoff: Int)

  /** Mine `db` (sequences with multiplicities) for frequent subsequences.
    *
    * @param maxFid largest frequent fid (σ boundary on items)
    * @param pivot  if set, mine only pivot sequences for this item
    */
  def mine(
      db: IndexedSeq[(Array[Int], Long)],
      fst: Fst,
      dict: Dictionary,
      sigma: Long,
      maxFid: Int,
      pivot: Option[Int] = None
  ): Map[Pattern, Long] = {
    val k = pivot.getOrElse(0)
    val nq = fst.numStates
    val graphs = db.iterator.map { case (t, w) =>
      val p = FstSimulator.product(t, fst, dict)
      // One backward pass over the nodes. accept(x): can the FST consume the
      // rest of t from grid state x, reach a final state and output only ε
      // along the way? (Exact on the grid states of the product, the only ones
      // looked up.) last: the last node with an edge that can output the
      // pivot; the early-stopping cutoff is the end of its position's row.
      val accept = new Array[Boolean]((t.length + 1) * nq)
      for (q <- 0 until nq) accept(t.length * nq + q) = fst.isFinal(q)
      var last = -1
      var x = t.length * nq - 1
      while (x >= 0) {
        var e = p.start(x)
        while (e < p.start(x + 1)) {
          val outs = p.out(e)
          if (outs.length == 1 && outs(0) == 0 && accept(p.to(e))) accept(x) = true
          if (last < 0 && k > 0 && java.util.Arrays.binarySearch(outs, k) >= 0) last = x
          e += 1
        }
        x -= 1
      }
      new Graph(p.start, p.to, p.out, accept, w, if (last < 0) Int.MaxValue else (last / nq + 1) * nq - 1)
    }.toArray
    search(graphs, fst.initial, sigma, if (k > 0) math.min(k, maxFid) else maxFid, k)
  }

  /** Pattern growth over `graphs`, every walk starting at node `root`: the
    * frequent output sequences of items `<= itemCap`, with their supports. If
    * `pivot > 0`, only sequences that contain `pivot` are emitted.
    */
  private[core] def search(graphs: Array[Graph], root: Int, sigma: Long, itemCap: Int,
                           pivot: Int): Map[Pattern, Long] = {
    if (graphs.isEmpty) return Map.empty
    // marks(x) == stamp: node x visited by the current ε-closure. Closures run
    // one graph at a time, so one array serves all graphs and a new stamp
    // clears it.
    val marks = new Array[Int](graphs.iterator.map(_.accept.length).max)
    var stamp = 0
    val results = mutable.HashMap.empty[Pattern, Long]
    val prefix = mutable.ArrayBuffer.empty[Int]

    /** Expand the search node with the given snapshots `tid << 32 | node`. */
    def expand(snapshots: Array[Long], hasPivot: Boolean): Unit = {
      // item -> child snapshots, in tid order since we process parent
      // snapshots in tid order. A snapshot may occur twice; the child's
      // ε-closure and support count see each node of a tid once.
      val children = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Long]]
      var work = new Array[Int](16) // ε-closure work list of nodes
      var top = 0
      def push(x: Int): Unit = if (marks(x) != stamp) {
        marks(x) = stamp
        if (top == work.length) work = java.util.Arrays.copyOf(work, 2 * top)
        work(top) = x
        top += 1
      }

      var lastTid = -1
      var si = 0
      while (si < snapshots.length) {
        val tid = (snapshots(si) >>> 32).toInt
        val g = graphs(tid)
        if (tid != lastTid) { stamp += 1; lastTid = tid }
        // Follow ε-output edges and record every child snapshot reached by
        // one non-ε output item.
        if (hasPivot || snapshots(si).toInt <= g.cutoff) push(snapshots(si).toInt)
        while (top > 0) {
          top -= 1
          val x = work(top)
          var e = g.start(x)
          while (e < g.start(x + 1)) {
            val outs = g.out(e)
            var oi = 0
            while (oi < outs.length) {
              val w = outs(oi)
              if (w == 0) push(g.to(e))
              else if (w <= itemCap)
                children.getOrElseUpdate(w, mutable.ArrayBuffer.empty) += (tid.toLong << 32) | g.to(e)
              oi += 1
            }
            e += 1
          }
        }
        si += 1
      }

      for ((w, buf) <- children) {
        // Upper bound on any extension's support: total weight of distinct tids.
        var bound = 0L
        var support = 0L
        var lastTid = -1
        var counted = false
        var bi = 0
        while (bi < buf.length) {
          val tid = (buf(bi) >>> 32).toInt
          val g = graphs(tid)
          if (tid != lastTid) { bound += g.weight; lastTid = tid; counted = false }
          if (!counted && g.accept(buf(bi).toInt)) { support += g.weight; counted = true }
          bi += 1
        }
        if (bound >= sigma) {
          prefix += w
          val childHasPivot = hasPivot || w == pivot
          if (support >= sigma && (pivot == 0 || childHasPivot))
            results(Pattern(prefix.toArray)) = support
          expand(buf.toArray, childHasPivot)
          prefix.remove(prefix.length - 1)
        }
      }
    }

    expand(Array.tabulate(graphs.length)(tid => (tid.toLong << 32) | root), hasPivot = false)
    results.toMap
  }
}
