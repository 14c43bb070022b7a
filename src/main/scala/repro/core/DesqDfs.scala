package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** DESQ-DFS: pattern-growth mining under a DESQ subsequence constraint
  * (Sec. V-C; originally from the DESQ paper [5]).
  *
  * The search tree grows a prefix one output item at a time. Each node holds a
  * projected database of `(T, pos, state)` snapshots — FST simulations of `T`
  * that have produced exactly the node's prefix and stand at `pos`/`state`.
  * Snapshots move along the edges of `T`'s [[FstSimulator.Product]]. A prefix
  * is a complete candidate for `T` if some snapshot can consume the rest of
  * `T` producing only ε (precomputed per `(pos, state)`).
  *
  * With `pivot = Some(k)` the miner runs D-SEQ's restricted local mining:
  * prefixes use only items `<= k`, only sequences containing `k` are emitted,
  * and the early-stopping heuristic skips snapshots that are past the last
  * position of `T` able to output `k` while the prefix lacks `k`.
  *
  * The unrestricted variant (`pivot = None`) is the sequential DESQ-DFS
  * baseline of Tab. V.
  */
object DesqDfs {

  /** Mine `db` (sequences with multiplicities) for frequent subsequences.
    *
    * @param maxFid    largest frequent fid (σ boundary on items)
    * @param pivot     if set, mine only pivot sequences for this item
    * @param earlyStop enable the early-stopping heuristic (pivot mode only)
    */
  def mine(
      db: IndexedSeq[(Array[Int], Long)],
      fst: Fst,
      dict: Dictionary,
      sigma: Long,
      maxFid: Int,
      pivot: Option[Int] = None,
      earlyStop: Boolean = true
  ): Map[Pattern, Long] = {
    val n = db.length
    if (n == 0) return Map.empty
    val itemCap = pivot.fold(maxFid)(k => math.min(k, maxFid))
    val pivotItem = pivot.getOrElse(0)

    // Per-sequence precomputation.
    val weights = new Array[Long](n)
    val products = new Array[FstSimulator.Product](n)
    val epsReach = new Array[Array[Boolean]](n)
    val lastPivotPos = Array.fill(n)(Int.MaxValue)
    val nq = fst.numStates

    require(nq <= 1024, "entry encoding supports at most 1024 FST states")
    var tid = 0
    while (tid < n) {
      val (t, w) = db(tid)
      weights(tid) = w
      require(t.length < (1 << 21), "entry encoding supports sequences up to 2^21 items")
      val p = FstSimulator.product(t, fst, dict)
      products(tid) = p
      // One backward pass over the edges. epsReach(i * nq + q): can the FST
      // consume t(i+1..n) from q, reach a final state and output only ε along
      // the way? (Exact on the grid states of the product, the only ones
      // looked up.) lastPivotPos: the last position at which an edge can
      // output the pivot — the early-stopping cutoff.
      val er = new Array[Boolean]((t.length + 1) * nq)
      for (q <- 0 until nq) er(t.length * nq + q) = fst.isFinal(q)
      var e = p.numEdges - 1
      var i = t.length - 1
      while (e >= 0) {
        while (e < p.edgeStart(i, 0)) i -= 1
        val tr = p.trans(e)
        val outs = p.out(e)
        if (outs.length == 1 && outs(0) == 0 && er((i + 1) * nq + tr.to)) er(i * nq + tr.from) = true
        if (earlyStop && pivotItem > 0 && lastPivotPos(tid) == Int.MaxValue &&
            java.util.Arrays.binarySearch(outs, pivotItem) >= 0) lastPivotPos(tid) = i
        e -= 1
      }
      epsReach(tid) = er
      tid += 1
    }
    // marks(i * nq + q) == stamp: grid state visited by the current ε-closure.
    // Closures run one tid at a time, so one array serves all sequences and a
    // new stamp clears it.
    val marks = new Array[Int](epsReach.iterator.map(_.length).max)
    var stamp = 0

    @inline def enc(tid: Int, pos: Int, q: Int): Long = (tid.toLong << 31) | (pos.toLong << 10) | q
    @inline def decTid(e: Long): Int = (e >>> 31).toInt
    @inline def decPos(e: Long): Int = ((e >>> 10) & 0x1FFFFF).toInt
    @inline def decQ(e: Long): Int = (e & 0x3FF).toInt

    val results = mutable.HashMap.empty[Pattern, Long]
    val prefix = mutable.ArrayBuffer.empty[Int]

    /** Expand the node with the given projected database entries. */
    def expand(entries: Array[Long], hasPivot: Boolean): Unit = {
      // item -> child entries, in tid order since we process parent entries
      // in tid order. An entry may occur twice; the child's ε-closure and
      // support count see each grid state of a tid once.
      val children = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[Long]]
      var lastDfsTid = -1
      var work = new Array[Int](16) // ε-closure work list of pos<<10|q keys
      var top = 0
      def push(i: Int, q: Int): Unit = if (marks(i * nq + q) != stamp) {
        marks(i * nq + q) = stamp
        if (top == work.length) work = java.util.Arrays.copyOf(work, 2 * top)
        work(top) = (i << 10) | q
        top += 1
      }

      var ei = 0
      while (ei < entries.length) {
        val e = entries(ei)
        val etid = decTid(e)
        if (etid != lastDfsTid) { stamp += 1; lastDfsTid = etid }
        val skip = !hasPivot && pivot.isDefined && earlyStop && decPos(e) > lastPivotPos(etid)
        if (!skip) closure(etid, decPos(e), decQ(e))
        ei += 1
      }

      /** Follow ε-output edges from `(i, q)` and record every child snapshot
        * reached by one non-ε output item.
        */
      def closure(tid: Int, i0: Int, q0: Int): Unit = {
        val p = products(tid)
        push(i0, q0)
        while (top > 0) {
          top -= 1
          val i = work(top) >>> 10
          val q = work(top) & 0x3FF
          if (i < p.length) {
            var e = p.edgeStart(i, q)
            while (e < p.edgeStart(i, q + 1)) {
              val to = p.trans(e).to
              val outs = p.out(e)
              var oi = 0
              while (oi < outs.length) {
                val w = outs(oi)
                if (w == 0) push(i + 1, to)
                else if (w <= itemCap)
                  children.getOrElseUpdate(w, mutable.ArrayBuffer.empty) += enc(tid, i + 1, to)
                oi += 1
              }
              e += 1
            }
          }
        }
      }

      for ((w, buf) <- children) {
        // Upper bound on any extension's support: total weight of distinct tids.
        var bound = 0L
        var support = 0L
        var lastTid = -1
        var counted = false
        var bi = 0
        while (bi < buf.length) {
          val e = buf(bi)
          val t = decTid(e)
          if (t != lastTid) { bound += weights(t); lastTid = t; counted = false }
          if (!counted && epsReach(t)(decPos(e) * nq + decQ(e))) { support += weights(t); counted = true }
          bi += 1
        }
        if (bound >= sigma) {
          prefix += w
          val childHasPivot = hasPivot || pivot.contains(w)
          if (support >= sigma && (pivot.isEmpty || childHasPivot))
            results(Pattern(prefix.toArray)) = support
          expand(buf.toArray, childHasPivot)
          prefix.remove(prefix.length - 1)
        }
      }
    }

    val root = Array.tabulate(n)(tid => enc(tid, 0, fst.initial))
    expand(root, hasPivot = false)
    results.toMap
  }
}
