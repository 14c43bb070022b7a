package repro.fst

import repro.dict.Dictionary

import scala.collection.mutable

/** FST simulation over the position × state grid of an input sequence
  * (Sec. IV of the paper).
  *
  * [[Product]] is the kernel every miner works on: pivot search, DESQ-DFS and
  * the D-CAND NFA construction. `reachFinal`, `foreachAcceptingRun` and
  * `candidates` are the reference enumeration: separate code that the
  * brute-force miner, NAIVE / SEMI-NAIVE, Tab. IV and the tests use.
  *
  * All methods work on fid-encoded sequences. Output sets are sorted
  * `Array[Int]` with fid 0 = ε.
  */
object FstSimulator {

  /** One accepting run, represented by its sequence of output sets — one
    * entry per input position (ε-only sets included).
    */
  type Run = IndexedSeq[Array[Int]]

  /** Most accepting runs one sequence may have before enumeration gives up. */
  private val MaxRuns = 1 << 20

  /** The surviving edges of the position × state grid of one input sequence
    * (Fig. 5): edge `e` consumes `t(i)` with transition `trans(e)`, produces
    * one item of `out(e)`, lies on some accepting run of `t`, and leads to grid
    * node `to(e)`. Grid state `(i, q)` is node `i * nq + q`, for `i` in `0..n`;
    * the edges leaving node `x` are `start(x) until start(x + 1)`, in
    * `fst.byState(q)` order (none at position `n`).
    */
  final class Product private[FstSimulator] (
      val fst: Fst,
      val length: Int,
      val accepting: Boolean, // does `t` have an accepting run at all?
      val start: Array[Int],
      val trans: Array[Transition],
      val to: Array[Int],
      val out: Array[Array[Int]]
  ) {
    def numEdges: Int = trans.length
    def edgesAt(i: Int): Range = start(i * fst.numStates) until start((i + 1) * fst.numStates)
  }

  /** Build the [[Product]] of `t`: a backward pass marks the grid states from
    * which the rest of `t` can be consumed into a final state, then a forward
    * sweep from the initial state keeps the edges into marked states. This is
    * the only place the miners evaluate input predicates and output functions.
    */
  def product(t: Array[Int], fst: Fst, dict: Dictionary): Product = {
    val n = t.length
    val nq = fst.numStates
    val reach = new Array[Boolean]((n + 1) * nq) // grid state (i, q) at i * nq + q
    def viable(i: Int, tr: Transition) = reach((i + 1) * nq + tr.to) && tr.in.matches(t(i), dict)
    for (q <- 0 until nq) reach(n * nq + q) = fst.isFinal(q)
    var i = n - 1
    while (i >= 0) {
      var q = 0
      while (q < nq) {
        val ts = fst.byState(q)
        var j = 0
        while (j < ts.length && !reach(i * nq + q)) { reach(i * nq + q) = viable(i, ts(j)); j += 1 }
        q += 1
      }
      i -= 1
    }
    val fwd = new Array[Boolean]((n + 1) * nq)
    fwd(fst.initial) = reach(fst.initial)
    val start = new Array[Int]((n + 1) * nq + 1)
    val trans = new Array[Transition](n * fst.numTransitions) // at most |Δ| edges per position
    val to = new Array[Int](trans.length)
    val out = new Array[Array[Int]](trans.length)
    var m = 0
    i = 0
    while (i < n) {
      var q = 0
      while (q < nq) {
        start(i * nq + q) = m
        if (fwd(i * nq + q)) {
          val ts = fst.byState(q)
          var j = 0
          while (j < ts.length) {
            val tr = ts(j)
            if (viable(i, tr)) {
              trans(m) = tr
              to(m) = (i + 1) * nq + tr.to
              out(m) = tr.out.outputs(t(i), dict)
              fwd(to(m)) = true
              m += 1
            }
            j += 1
          }
        }
        q += 1
      }
      i += 1
    }
    java.util.Arrays.fill(start, n * nq, start.length, m)
    new Product(fst, n, reach(fst.initial), start, java.util.Arrays.copyOf(trans, m),
      java.util.Arrays.copyOf(to, m), java.util.Arrays.copyOf(out, m))
  }

  /** `reach(i)(q)` — can the FST consume `t(i+1..n)` starting in state `q` and
    * end in a final state? Backward DP, O(|T|·|Δ|). Index `i` ranges 0..n.
    */
  def reachFinal(t: Array[Int], fst: Fst, dict: Dictionary): Array[Array[Boolean]] = {
    val n = t.length
    val reach = Array.ofDim[Boolean](n + 1, fst.numStates)
    for (q <- 0 until fst.numStates) reach(n)(q) = fst.isFinal(q)
    var i = n - 1
    while (i >= 0) {
      val item = t(i)
      var q = 0
      while (q < fst.numStates) {
        val ts = fst.byState(q)
        var j = 0
        var ok = false
        while (!ok && j < ts.length) {
          val tr = ts(j)
          if (tr.in.matches(item, dict) && reach(i + 1)(tr.to)) ok = true
          j += 1
        }
        reach(i)(q) = ok
        q += 1
      }
      i -= 1
    }
    reach
  }

  /** Stream all accepting runs of `t` (as sequences of output sets) to `f`
    * without materializing them. Exponential in general — `maxRuns` guards
    * against blow-up (the paper's NAIVE OOM cases surface here as an
    * IllegalStateException).
    */
  def foreachAcceptingRun(t: Array[Int], fst: Fst, dict: Dictionary,
                          maxRuns: Int = MaxRuns)(f: Run => Unit): Unit = {
    val n = t.length
    val reach = reachFinal(t, fst, dict)
    var count = 0
    val cur = new Array[Array[Int]](n)
    def rec(i: Int, q: Int): Unit = {
      if (i == n) {
        if (fst.isFinal(q)) {
          count += 1
          if (count > maxRuns)
            throw new IllegalStateException(s"more than $maxRuns accepting runs")
          f(cur.clone().toIndexedSeq)
        }
        return
      }
      val item = t(i)
      for (tr <- fst.byState(q))
        if (tr.in.matches(item, dict) && reach(i + 1)(tr.to)) {
          cur(i) = tr.out.outputs(item, dict)
          rec(i + 1, tr.to)
        }
    }
    if (n == 0) { if (fst.isFinal(fst.initial)) f(IndexedSeq.empty) }
    else rec(0, fst.initial)
  }

  /** All accepting runs, materialized — for tests and small inputs. */
  def acceptingRuns(t: Array[Int], fst: Fst, dict: Dictionary,
                    maxRuns: Int = MaxRuns): Seq[Run] = {
    val out = mutable.ArrayBuffer.empty[Run]
    foreachAcceptingRun(t, fst, dict, maxRuns)(out += _)
    out.toSeq
  }

  /** Candidates generated by one run: the Cartesian product of its output
    * sets, ε entries contributing nothing. The empty output sequence is
    * dropped (an empty pattern is not a subsequence).
    */
  def candidatesOfRun(run: Run, maxCands: Int = 1 << 20): Set[List[Int]] = {
    var acc: Set[List[Int]] = Set(Nil)
    for (outSet <- run) {
      val next = mutable.Set.empty[List[Int]]
      for (prefix <- acc; w <- outSet) {
        next += (if (w == 0) prefix else prefix :+ w)
        if (next.size > maxCands)
          throw new IllegalStateException(s"more than $maxCands candidates in one run")
      }
      acc = next.toSet
    }
    acc - Nil
  }

  /** `Gπ(T)` — all candidate subsequences of `t` (distinct across runs).
    * `maxFid`, when >= 0, filters output items to fids <= maxFid — i.e.
    * computes `Gσπ(T)` by excluding candidates containing infrequent items.
    */
  def candidates(t: Array[Int], fst: Fst, dict: Dictionary,
                 maxFid: Int = -1, maxCands: Int = 1 << 20): Set[List[Int]] = {
    val res = mutable.Set.empty[List[Int]]
    foreachAcceptingRun(t, fst, dict, maxRuns = math.max(maxCands, 1 << 16)) { run =>
      // With σ-filtering, a run whose output set loses all its items produces
      // no candidate in Gσπ (every pick would contain an infrequent item).
      val filtered =
        if (maxFid < 0) Some(run)
        else {
          val f = run.map(os => os.filter(w => w == 0 || w <= maxFid))
          if (f.exists(_.isEmpty)) None else Some(f)
        }
      filtered.foreach { r =>
        res ++= candidatesOfRun(r, maxCands)
        if (res.size > maxCands)
          throw new IllegalStateException(s"more than $maxCands candidates")
      }
    }
    res.toSet
  }
}
