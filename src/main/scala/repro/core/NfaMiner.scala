package repro.core

/** D-CAND local mining (Sec. VI-B): count candidate subsequences directly on
  * the received weighted NFAs with DESQ-DFS's pattern-growth search
  * ([[DesqDfs.search]]), each NFA being one weighted output graph.
  *
  * A prefix's projected database is, per NFA, the states reachable by
  * spelling the prefix from the root. The prefix is accepted by an NFA iff one
  * of those states is final; its frequency is the weight sum of accepting
  * NFAs. Because acceptance is counted once per NFA, overlapping paths in one
  * NFA never double-count.
  *
  * Only sequences whose pivot is exactly `k` (i.e. that contain `k`; all items
  * are `<= k` by construction) are emitted.
  */
object NfaMiner {

  def mine(nfas: IndexedSeq[(Nfa, Long)], sigma: Long, pivot: Int): Map[Pattern, Long] = {
    val graphs = new Array[DesqDfs.Graph](nfas.length)
    for (ni <- nfas.indices) {
      val (nfa, weight) = nfas(ni)
      val start = new Array[Int](nfa.numStates + 1)
      for (q <- 0 until nfa.numStates) start(q + 1) = start(q) + nfa.edges(q).length
      val to = new Array[Int](start(nfa.numStates))
      val out = new Array[Array[Int]](to.length)
      for (q <- 0 until nfa.numStates; j <- nfa.edges(q).indices) {
        out(start(q) + j) = nfa.edges(q)(j)._1
        to(start(q) + j) = nfa.edges(q)(j)._2
      }
      graphs(ni) = new DesqDfs.Graph(start, to, out, nfa.isFinal, weight, Int.MaxValue)
    }
    DesqDfs.search(graphs, root = 0, sigma, itemCap = pivot, pivot)
  }
}
