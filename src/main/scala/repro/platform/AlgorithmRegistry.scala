package repro.platform

import repro.core._
import repro.graph.DirectedGraph

/** The seven algorithms the demo ships (paper §II/§V), keyed by the names
  * the Web UI would submit. Each entry maps `(graph, params)` to the
  * engine's [[Scores]].
  *
  * Parameter conventions (paper §IV-C): PageRank-family algorithms take
  * `alpha`, `maxIter` and `tol`; personalized variants additionally take
  * `ref`; CycleRank takes `ref`, `k` and `sigma`. Each entry parses the
  * strings into its engine's typed config — [[PageRank.Config]] or
  * [[CycleRank.Config]] — whose own defaults fill the omitted keys, and
  * rejects unknown keys, a missing `ref` and values that do not parse or
  * validate, naming the key and the value.
  */
object AlgorithmRegistry {

  type Algorithm = (DirectedGraph, Map[String, String]) => Scores

  /** An entry: `parse` builds the engine's config `C` from the form
    * parameters, `render` writes a config back as canonical strings, and
    * `engine` runs it.
    */
  private final case class Entry[C](parse: Map[String, String] => C,
                                    render: C => Map[String, String],
                                    engine: (DirectedGraph, C) => Scores) {
    def run(g: DirectedGraph, params: Map[String, String]): Scores = engine(g, parse(params))
    def canonical(params: Map[String, String]): Map[String, String] = render(parse(params))
  }

  /** A form key and how its value sets a field of the config `C`. */
  private type Key[C] = (String, (C, String) => C)

  /** Folds `params`, in key order, into `init`; every key must be one of
    * `keys`. Parse and validation errors are rethrown naming the key and
    * the value.
    */
  private def fold[C](params: Map[String, String], init: C)(keys: Seq[Key[C]]): C = {
    val set = keys.toMap
    params.toSeq.sorted.foldLeft(init) { case (c, (key, value)) =>
      val f = set.getOrElse(key, throw new IllegalArgumentException(
        s"unknown parameter $key=$value; known: ${set.keys.toSeq.sorted.mkString(", ")}"))
      try f(c, value) catch {
        case e: IllegalArgumentException =>
          throw new IllegalArgumentException(s"invalid parameter $key=$value: ${e.getMessage}", e)
      }
    }
  }

  private def missingRef = new IllegalArgumentException("missing required parameter 'ref'")

  private val pageRankKeys: Seq[Key[PageRank.Config]] = Seq(
    ("alpha", (c, v) => c.copy(alpha = v.toDouble)),
    ("maxIter", (c, v) => c.copy(maxIter = v.toInt)),
    ("tol", (c, v) => c.copy(tol = v.toDouble)))

  private val teleportKey: Key[PageRank.Config] = ("ref", (c, v) => c.copy(teleport = Seq(v.toLong)))

  private def pageRankConfig(personalized: Boolean)(params: Map[String, String]): PageRank.Config = {
    val cfg = fold(params, PageRank.Config())(
      if (personalized) pageRankKeys :+ teleportKey else pageRankKeys)
    if (personalized && cfg.teleport.isEmpty) throw missingRef
    cfg
  }

  private def renderPageRank(c: PageRank.Config): Map[String, String] =
    Map("alpha" -> c.alpha.toString, "maxIter" -> c.maxIter.toString, "tol" -> c.tol.toString) ++
      c.teleport.map(ref => "ref" -> ref.toString)

  /** The global and the personalized entry of one PageRank-family engine. */
  private def pageRankFamily(name: String, engine: (DirectedGraph, PageRank.Config) => Scores) =
    Seq(name -> Entry(pageRankConfig(personalized = false), renderPageRank, engine),
        s"personalized-$name" -> Entry(pageRankConfig(personalized = true), renderPageRank, engine))

  private def cycleRankConfig(params: Map[String, String]): (Long, CycleRank.Config) = {
    val (ref, cfg) = fold(params, (Option.empty[Long], CycleRank.Config()))(Seq(
      ("ref", { case ((_, c), v) => (Some(v.toLong), c) }),
      ("k", { case ((r, c), v) => (r, c.copy(k = v.toInt)) }),
      ("sigma", { case ((r, c), v) => (r, c.copy(scoring = Scoring.byName(v))) })))
    (ref.getOrElse(throw missingRef), cfg)
  }

  private val entries: Map[String, Entry[_]] = Map[String, Entry[_]](
    "cyclerank" -> Entry[(Long, CycleRank.Config)](
      cycleRankConfig,
      { case (ref, c) => Map("ref" -> ref.toString, "k" -> c.k.toString, "sigma" -> c.scoring.name) },
      { case (g, (ref, c)) => CycleRank.run(g, ref, c) })) ++
    pageRankFamily("pagerank", PageRank.run) ++
    pageRankFamily("cheirank", CheiRank.run) ++
    pageRankFamily("2drank", TwoDRank.run)

  private def entry(name: String): Entry[_] =
    entries.getOrElse(name,
      throw new IllegalArgumentException(
        s"unknown algorithm '$name'; known: ${names.toSeq.sorted.mkString(", ")}"))

  def names: Set[String] = entries.keySet

  def apply(name: String): Algorithm = entry(name).run

  /** `params` parsed into `name`'s config and rendered back: every key the
    * config has, in one spelling. Throws on what [[apply]] would reject
    * before running.
    */
  def canonical(name: String, params: Map[String, String]): Map[String, String] =
    entry(name).canonical(params)
}
