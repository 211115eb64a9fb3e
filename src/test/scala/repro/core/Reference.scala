package repro.core

import scala.util.Random

/** In-memory exact references the Spark implementations are validated
  * against, plus deterministic random-graph generators for batch tests.
  */
object Reference {

  /** Dense power-iteration PageRank with the exact semantics of
    * [[PageRank]]: teleport distribution `t` (uniform or concentrated),
    * dangling mass redistributed to `t`, init at `t`.
    */
  def pageRank(edges: Seq[(Long, Long)], vertices: Seq[Long], alpha: Double,
               teleport: Seq[Long] = Seq.empty, iters: Int = 300): Map[Long, Double] = {
    val verts = vertices.distinct.sorted
    val idx   = verts.zipWithIndex.toMap
    val n     = verts.size
    val t = Array.fill(n)(0.0)
    if (teleport.isEmpty) (0 until n).foreach(i => t(i) = 1.0 / n)
    else teleport.distinct.foreach(v => t(idx(v)) = 1.0 / teleport.distinct.size)
    val out = Array.fill(n)(List.empty[Int])
    val outdeg = Array.fill(n)(0)
    for ((s, d) <- edges.distinct if s != d) {
      out(idx(s)) ::= idx(d); outdeg(idx(s)) += 1
    }
    var score = t.clone()
    for (_ <- 0 until iters) {
      val next = Array.fill(n)(0.0)
      var dangling = 0.0
      for (i <- 0 until n) {
        if (outdeg(i) == 0) dangling += score(i)
        else out(i).foreach(j => next(j) += score(i) / outdeg(i))
      }
      for (i <- 0 until n)
        next(i) = (1 - alpha) * t(i) + alpha * (next(i) + dangling * t(i))
      score = next
    }
    verts.zipWithIndex.map { case (v, i) => v -> score(i) }.toMap
  }

  /** Brute-force CycleRank: enumerate ALL simple cycles through `ref` of
    * length ≤ K by unpruned DFS (no distance bounds — deliberately a
    * different search from both production implementations).
    */
  def cycleRank(edges: Seq[(Long, Long)], ref: Long, k: Int,
                scoring: Scoring = Scoring.Exponential): Map[Long, Double] = {
    val adj = edges.distinct.filter(e => e._1 != e._2)
      .groupMap(_._1)(_._2).view.mapValues(_.toList).toMap
    val scores = scala.collection.mutable.Map.empty[Long, Double].withDefaultValue(0.0)
    def dfs(path: List[Long], onPath: Set[Long]): Unit = {
      val v = path.head
      for (w <- adj.getOrElse(v, Nil)) {
        if (w == ref && path.size >= 2) {
          val sigma = scoring.sigma(path.size)
          path.foreach(u => scores(u) += sigma)
        } else if (path.size < k && !onPath(w)) {
          dfs(w :: path, onPath + w)
        }
      }
    }
    dfs(List(ref), Set(ref))
    scores.toMap
  }

  /** Brute-force 2DRank (Zhirov et al.) of the nodes that `pr` and `chei`
    * score: K and K* are the 1-based positions when sorting by
    * (−score, id), and the 2DRank positions come from sorting the nodes by
    * (max(K, K*), side, inner, id), where side 0 is the vertical edge
    * K = L with inner K*, and side 1 the horizontal edge with inner K.
    * Returns id → (2DRank position, K, K*).
    */
  def twoDRank(pr: Map[Long, Double], chei: Map[Long, Double]): Map[Long, (Int, Int, Int)] = {
    def positions(s: Map[Long, Double]): Map[Long, Int] =
      s.toSeq.sortBy { case (id, x) => (-x, id) }.map(_._1).zipWithIndex
        .map { case (id, i) => id -> (i + 1) }.toMap
    val (k, kstar) = (positions(pr), positions(chei))
    val swept = k.keys.toSeq.sortBy { id =>
      val l = math.max(k(id), kstar(id))
      val side = if (k(id) == l) 0 else 1
      (l, side, if (side == 0) kstar(id) else k(id), id)
    }
    swept.zipWithIndex.map { case (id, i) => id -> ((i + 1, k(id), kstar(id))) }.toMap
  }

  /** Deterministic random simple digraph on vertices 0..n-1 with ~m edges. */
  def randomGraph(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    (0 until m).map { _ =>
      (rnd.nextInt(n).toLong, rnd.nextInt(n).toLong)
    }.filter(e => e._1 != e._2).distinct
  }

  /** Random graph guaranteed to contain some reciprocated edges (so
    * CycleRank tests exercise non-trivial cycle structure).
    */
  def randomReciprocalGraph(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val base = randomGraph(n, m, seed)
    val rnd = new Random(seed + 1)
    val recip = base.filter(_ => rnd.nextDouble() < 0.4).map(e => (e._2, e._1))
    (base ++ recip).distinct
  }

  def maxAbsDiff(a: Map[Long, Double], b: Map[Long, Double]): Double = {
    val keys = a.keySet ++ b.keySet
    if (keys.isEmpty) 0.0
    else keys.map(k => math.abs(a.getOrElse(k, 0.0) - b.getOrElse(k, 0.0))).max
  }
}
