package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{DirectedGraph, IndexedGraph}

/** PageRank and Personalized PageRank (paper §II).
  *
  * Semantics (see DESIGN.md):
  *  - damping factor α = probability of following an out-link; with
  *    probability 1−α the walker teleports to the teleport distribution
  *    (uniform for global PageRank, concentrated on the reference set for
  *    the personalized variant);
  *  - dangling vertices (out-degree 0) hand their whole mass to the
  *    teleport distribution, so scores always sum to 1;
  *  - iteration stops when the L1 change drops below `tol` or after
  *    `maxIter` sweeps.
  *
  * [[run]] is the engine, [[scores]] its kernel on the index; [[step]] is
  * the same sweep as a DataFrame, which the DuckDB oracle checks with plain
  * SQL and tests iterate against [[run]].
  */
object PageRank {

  /** @param alpha    damping factor (paper uses 0.85 for PR, 0.3/0.85 for PPR)
    * @param maxIter  hard iteration cap
    * @param tol      L1 convergence threshold
    * @param teleport reference vertices for the personalized variant
    *                 (empty = global PageRank, uniform teleport)
    */
  final case class Config(
      alpha: Double = 0.85,
      maxIter: Int = 60,
      tol: Double = 1e-10,
      teleport: Seq[Long] = Seq.empty) {
    require(alpha >= 0 && alpha <= 1, s"alpha must be in [0,1], got $alpha")
    require(maxIter >= 1, s"maxIter must be positive, got $maxIter")
    require(tol >= 0 && !tol.isInfinite, s"tol must be finite and non-negative, got $tol")
  }

  /** One power-iteration sweep, exposed so the DuckDB oracle can verify it
    * with plain SQL. `state` is `(id, t, outdeg, score)`; the result has
    * the same shape with updated `score`. Fully lazy: the dangling mass is
    * a one-row aggregate cross-joined in, not a driver-side action.
    */
  def step(state: DataFrame, edges: DataFrame, alpha: Double): DataFrame = {
    val contribs = state.where(col("outdeg") > 0)
      .join(edges, state("id") === edges("src"))
      .groupBy(col("dst").as("id"))
      .agg(sum(col("score") / col("outdeg")).as("contrib"))
    val dangling = state.where(col("outdeg") === 0)
      .agg(coalesce(sum(col("score")), lit(0.0)).as("dang"))
    state.select(col("id"), col("t"), col("outdeg"))
      .join(contribs, Seq("id"), "left")
      .crossJoin(dangling)
      .select(
        col("id"), col("t"), col("outdeg"),
        (lit(1 - alpha) * col("t") +
          lit(alpha) * (coalesce(col("contrib"), lit(0.0)) + col("dang") * col("t")))
          .as("score"))
  }

  /** Power iteration on the driver: the [[scores]] of the graph's
    * driver-side [[IndexedGraph]], one per vertex and summing to 1, with
    * the index's ids. The first engine call on the graph builds the index
    * and every later run reuses it, so a run starts no Spark job.
    */
  def run(g: DirectedGraph, cfg: Config = Config()): Scores =
    new Scores(g.index.ids, scores(g.index, cfg))

  /** The kernel: the scores of the vertices of `ix`, in index order. The
    * scores and the teleport vector `t` are dense arrays. A sweep visits
    * the vertices in index order and adds each `score(src)/outdeg` share
    * to its out-neighbours in row order, then applies the teleport and the
    * dangling mass: every run adds the same doubles in the same order,
    * whatever the session's partitioning. The driver holds four n-length
    * arrays of doubles. CheiRank is this kernel on `ix.transpose`.
    */
  private[core] def scores(ix: IndexedGraph, cfg: Config): Array[Double] = {
    val n = ix.numVertices
    val refs = cfg.teleport.distinct.map(ix.indexOf)
    require(refs.forall(_ >= 0),
      s"teleport set ${cfg.teleport} contains vertices absent from the graph")
    val t = new Array[Double](n)
    if (refs.isEmpty) java.util.Arrays.fill(t, 1.0 / n) else refs.foreach(i => t(i) = 1.0 / refs.size)
    val out = ix.out
    var score = t.clone()
    var it = 0
    var delta = Double.MaxValue
    val alpha = cfg.alpha
    while (it < cfg.maxIter && delta > cfg.tol) {
      val contrib = new Array[Double](n)
      var m = 0.0 // the dangling mass
      for (v <- 0 until n) {
        val deg = out.degree(v)
        if (deg == 0) m += score(v)
        else {
          val share = score(v) / deg
          for (j <- out.offsets(v) until out.offsets(v + 1)) contrib(out.nbrs(j)) += share
        }
      }
      val next = Array.tabulate(n)(i => (1 - alpha) * t(i) + alpha * (contrib(i) + m * t(i)))
      delta = (0 until n).iterator.map(i => math.abs(next(i) - score(i))).sum
      score = next
      it += 1
    }
    score
  }
}
