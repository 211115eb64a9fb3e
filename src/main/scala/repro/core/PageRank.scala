package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.DirectedGraph

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
  * [[run]] is the engine; [[step]] is the same sweep as a DataFrame, which
  * the DuckDB oracle checks with plain SQL and tests iterate against
  * [[run]].
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
    require(maxIter >= 1, "maxIter must be positive")
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

  /** A vertex of the iteration: teleport probability, whether it is
    * dangling, its score, and how much the last sweep changed that score.
    */
  private final case class Vertex(t: Double, dangling: Boolean, score: Double, change: Double)

  /** Power iteration over pair RDDs. Returns `(id, score)`, scores summing
    * to 1.
    *
    * The adjacency `(src, dsts)` and the vertex state are partitioned once
    * by one `HashPartitioner` with the session's
    * `spark.sql.shuffle.partitions` parts, and the adjacency is
    * checkpointed, so a sweep joins scores with it without a shuffle; the
    * only shuffle is the `reduceByKey` of the contributions. Each sweep's
    * one action is an `aggregate` over the checkpointed new state, which
    * returns the L1 change and the dangling mass that the next sweep
    * spreads over the teleport vector. Only the newest state stays
    * persisted; the returned frame reads it.
    */
  def run(g: DirectedGraph, cfg: Config = Config()): DataFrame = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val refs = cfg.teleport.toSet
    val adj = g.edges.rdd.map(r => (r.getLong(0), r.getLong(1)))
      .groupByKey(part).mapValues(_.toArray).localCheckpoint()
    // Teleport weight 1 on every vertex (global) or on the references;
    // the probability is the weight over the weights' sum.
    val weighted = g.vertices.rdd
      .map { r => val id = r.getLong(0); (id, if (refs.isEmpty || refs(id)) 1.0 else 0.0) }
      .partitionBy(part).leftOuterJoin(adj)
      .mapValues { case (w, out) => (w, out.isEmpty) }
    try {
      val (wSum, wDangling) = weighted.values.aggregate((0.0, 0.0))(
        { case ((s, d), (w, dangling)) => (s + w, if (dangling) d + w else d) },
        { case ((s1, d1), (s2, d2)) => (s1 + s2, d1 + d2) })
      require(refs.isEmpty || wSum == refs.size,
        s"teleport set ${cfg.teleport} contains vertices absent from the graph")
      val scale = 1.0 / wSum
      var state = weighted.mapValues { case (w, dangling) =>
        Vertex(w * scale, dangling, w * scale, 0.0)
      }
      var danglingMass = wDangling * scale
      var it = 0
      var delta = Double.MaxValue
      val alpha = cfg.alpha
      while (it < cfg.maxIter && delta > cfg.tol) {
        val contribs = adj.join(state).values
          .flatMap { case (dsts, v) => val c = v.score / dsts.length; dsts.iterator.map(d => (d, c)) }
          .reduceByKey(part, _ + _)
        val m = danglingMass
        val next = state.leftOuterJoin(contribs).mapValues { case (v, c) =>
          val s = (1 - alpha) * v.t + alpha * (c.getOrElse(0.0) + m * v.t)
          Vertex(v.t, v.dangling, s, math.abs(s - v.score))
        }.localCheckpoint()
        val (d, dm) = next.values.aggregate((0.0, 0.0))(
          (acc, v) => (acc._1 + v.change, if (v.dangling) acc._2 + v.score else acc._2),
          (a, b) => (a._1 + b._1, a._2 + b._2))
        state.unpersist(blocking = false)
        state = next
        delta = d
        danglingMass = dm
        it += 1
      }
      state.map { case (id, v) => (id, v.score) }.toDF("id", "score")
    } finally adj.unpersist(blocking = false)
  }

  /** Convenience: personalized PageRank around a single reference node. */
  def personalized(g: DirectedGraph, ref: Long, alpha: Double,
                   maxIter: Int = 60, tol: Double = 1e-10): DataFrame =
    run(g, Config(alpha = alpha, maxIter = maxIter, tol = tol, teleport = Seq(ref)))
}
