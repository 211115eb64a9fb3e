package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.NamedGraphs
import repro.graph.DirectedGraph
import repro.core.TableHarness.Column

/** Reproduction of the paper's evaluation tables. Each method computes
  * the same columns as the corresponding table and returns them for
  * rendering/assertion; jobs and benches print them, tests assert on
  * them, EXPERIMENTS.md records them next to the paper's rows.
  */
object Tables {

  /** Resolve a label to the id of the one node carrying it in a labelled
    * graph, read from the graph's index.
    */
  def idOf(g: DirectedGraph, label: String): Long = {
    require(g.labels.isDefined, "graph has no labels")
    g.index.idOf(label)
  }

  /** Table I: PR (α=0.85), CR (K=3, σ=e⁻ⁿ) and PPR (α=0.3) on the
    * en-wiki stand-in; references "Freddie Mercury" and "Pasta"; the
    * reference is kept in the personalized columns (row 1 in the paper).
    */
  def tableI(spark: SparkSession): Seq[Column] = {
    val g = NamedGraphs.wikipediaEn(spark)
    val pr = PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 100, tol = 1e-9))
    val cols = Seq(Column("PageRank", TableHarness.topLabels(g, pr, 5)))
    val perRef = for (refName <- Seq("Freddie Mercury", "Pasta")) yield {
      val ref = idOf(g, refName)
      val cr  = CycleRank.run(g, ref, CycleRank.Config(k = 3, scoring = Scoring.Exponential))
      val ppr = PageRank.run(g,
        PageRank.Config(alpha = 0.3, maxIter = 100, tol = 1e-9, teleport = Seq(ref)))
      Seq(
        Column(s"Cyclerank [$refName]",      TableHarness.topLabels(g, cr, 5)),
        Column(s"Pers.PageRank [$refName]",  TableHarness.topLabels(g, ppr, 5)))
    }
    cols ++ perRef.flatten
  }

  /** Table II: PR (α=0.85), CR (K=5, σ=e⁻ⁿ) and PPR (α=0.85) on the
    * Amazon stand-in; references "1984" and "The Fellowship of the Ring";
    * the reference is excluded from the personalized lists (as in the
    * paper's table).
    */
  def tableII(spark: SparkSession): Seq[Column] = {
    val g = NamedGraphs.amazon(spark)
    val pr = PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 100, tol = 1e-9))
    val cols = Seq(Column("PageRank", TableHarness.topLabels(g, pr, 5)))
    val perRef = for (refName <- Seq("1984", "The Fellowship of the Ring")) yield {
      val ref = idOf(g, refName)
      val cr  = CycleRank.run(g, ref, CycleRank.Config(k = 5, scoring = Scoring.Exponential))
      val ppr = PageRank.run(g,
        PageRank.Config(alpha = 0.85, maxIter = 100, tol = 1e-9, teleport = Seq(ref)))
      Seq(
        Column(s"Cyclerank [$refName]",     TableHarness.topLabels(g, cr, 5, Some(ref))),
        Column(s"Pers.PageRank [$refName]", TableHarness.topLabels(g, ppr, 5, Some(ref))))
    }
    cols ++ perRef.flatten
  }

  /** Table III: CR (K=3, σ=e⁻ⁿ) top-5 for "Fake news" across six
    * language editions; short lists padded with "–"; reference excluded
    * (the paper lists only related articles).
    */
  def tableIII(spark: SparkSession): Seq[Column] = {
    for (lang <- Seq("de", "en", "fr", "it", "nl", "pl")) yield {
      val g = NamedGraphs.fakeNews(spark, lang)
      val (refName, _) = NamedGraphs.FakeNewsEditions(lang)
      val ref = idOf(g, refName)
      val cr = CycleRank.run(g, ref, CycleRank.Config(k = 3, scoring = Scoring.Exponential))
      Column(s"$refName ($lang)", TableHarness.topLabels(g, cr, 5, Some(ref)))
    }
  }
}
