package repro.platform

import org.apache.spark.sql.DataFrame
import repro.core._
import repro.graph.DirectedGraph

/** The seven algorithms the demo ships (paper §II/§V), keyed by the names
  * the Web UI would submit. Each entry maps `(graph, params)` to a
  * `(id, score)` frame.
  *
  * Parameter conventions (paper §IV-C): PageRank-family algorithms take
  * `alpha`; personalized variants additionally take `ref`; CycleRank
  * takes `ref`, `k` and `sigma`.
  */
object AlgorithmRegistry {

  type Algorithm = (DirectedGraph, Map[String, String]) => DataFrame

  private def p(params: Map[String, String], key: String): String =
    params.getOrElse(key,
      throw new IllegalArgumentException(s"missing required parameter '$key'"))

  private def alphaOf(params: Map[String, String]): Double =
    params.get("alpha").map(_.toDouble).getOrElse(0.85)

  /** PR-family iteration knobs, overridable from the task parameters. */
  private def prConfig(params: Map[String, String]): PageRank.Config =
    PageRank.Config(
      alpha = alphaOf(params),
      maxIter = params.get("maxIter").map(_.toInt).getOrElse(60),
      tol = params.get("tol").map(_.toDouble).getOrElse(1e-10))

  val algorithms: Map[String, Algorithm] = Map(
    "pagerank" -> ((g, params) =>
      PageRank.run(g, prConfig(params))),
    "personalized-pagerank" -> ((g, params) =>
      PageRank.run(g, prConfig(params).copy(teleport = Seq(p(params, "ref").toLong)))),
    "cheirank" -> ((g, params) =>
      CheiRank.run(g, prConfig(params))),
    "personalized-cheirank" -> ((g, params) =>
      CheiRank.run(g, prConfig(params).copy(teleport = Seq(p(params, "ref").toLong)))),
    "2drank" -> ((g, params) => {
      val c = prConfig(params)
      TwoDRank.run(g, c.alpha, c.maxIter, c.tol).select("id", "score")
    }),
    "personalized-2drank" -> ((g, params) => {
      val c = prConfig(params)
      TwoDRank.personalized(g, p(params, "ref").toLong, c.alpha, c.maxIter, c.tol)
        .select("id", "score")
    }),
    "cyclerank" -> ((g, params) =>
      CycleRank.run(g, p(params, "ref").toLong,
        CycleRank.Config(
          k = params.get("k").map(_.toInt).getOrElse(3),
          scoring = params.get("sigma").map(Scoring.byName).getOrElse(Scoring.Exponential)))),
  )

  def names: Set[String] = algorithms.keySet

  def apply(name: String): Algorithm =
    algorithms.getOrElse(name,
      throw new IllegalArgumentException(
        s"unknown algorithm '$name'; known: ${names.toSeq.sorted.mkString(", ")}"))
}
