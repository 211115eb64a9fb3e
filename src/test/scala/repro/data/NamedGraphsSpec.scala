package repro.data

import repro.SparkSpec
import repro.core.{CycleRank, GraphTestKit}
import repro.experiments.Tables

/** Structural invariants of the planted table graphs. */
class NamedGraphsSpec extends SparkSpec with GraphTestKit {

  test("wikipediaEn is labelled and contains all table entities") {
    val g = NamedGraphs.wikipediaEn(spark)
    val labels = g.labels.get.collect().map(_.getString(1)).toSet
    val expected = Seq(
      "United States", "Animal", "Arthropod", "Association football", "Insect",
      "Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor", "John Deacon",
      "The FM Tribute Concert", "HIV/AIDS", "Queen II",
      "Pasta", "Italian cuisine", "Italy", "Spaghetti", "Flour",
      "Bolognese sauce", "Carbonara", "Durum")
    expected.foreach(l => assert(labels.contains(l), s"missing $l"))
  }

  test("wikipediaEn: popular acyclic pages share no cycle with the reference") {
    val g = NamedGraphs.wikipediaEn(spark)
    val ref = Tables.idOf(g, "Freddie Mercury")
    val cr = scoresMap(CycleRank.run(g, ref, CycleRank.Config(5)))
    for (p <- Seq("The FM Tribute Concert", "HIV/AIDS", "Queen II"))
      assert(!cr.contains(Tables.idOf(g, p)), s"$p must have zero CycleRank")
  }

  test("wikipediaEn: member CycleRank scores are exactly e^-2 + c*e^-3") {
    val g = NamedGraphs.wikipediaEn(spark)
    val ref = Tables.idOf(g, "Freddie Mercury")
    val cr = scoresMap(CycleRank.run(g, ref, CycleRank.Config(3)))
    assertClose(cr(Tables.idOf(g, "Queen (band)")), e(2) + 12 * e(3), 1e-10)
    assertClose(cr(Tables.idOf(g, "Brian May")),    e(2) +  3 * e(3), 1e-10)
    assertClose(cr(Tables.idOf(g, "Roger Taylor")), e(2) +  2 * e(3), 1e-10)
    assertClose(cr(Tables.idOf(g, "John Deacon")),  e(2) +  1 * e(3), 1e-10)
    assertClose(cr(ref), 4 * e(2) + (12 + 3 + 2 + 1) * e(3), 1e-10)
  }

  test("amazon: member-hub pages are shared nodes, not duplicates") {
    val g = NamedGraphs.amazon(spark)
    val l = g.labels.get.collect().map(_.getString(1))
    assert(l.count(_ == "The Catcher in the Rye") == 1)
    assert(l.count(_ == "Lord of the Flies") == 1)
  }

  test("amazon: Harry Potter has zero CycleRank from Fellowship at K=5") {
    val g = NamedGraphs.amazon(spark)
    val ref = Tables.idOf(g, "The Fellowship of the Ring")
    val cr = scoresMap(CycleRank.run(g, ref, CycleRank.Config(5)))
    assert(!cr.contains(Tables.idOf(g, "Harry Potter (Book 1)")))
    assert(!cr.contains(Tables.idOf(g, "Harry Potter (Book 2)")))
  }

  test("amazon: communities are cycle-isolated from each other") {
    val g = NamedGraphs.amazon(spark)
    val ref = Tables.idOf(g, "1984")
    val cr = scoresMap(CycleRank.run(g, ref, CycleRank.Config(5)))
    assert(!cr.contains(Tables.idOf(g, "The Hobbit")))
  }

  test("fakeNews: every edition builds, with the right scored-node count") {
    for ((lang, (_, members)) <- NamedGraphs.FakeNewsEditions) {
      val g = NamedGraphs.fakeNews(spark, lang)
      val (refName, _) = NamedGraphs.FakeNewsEditions(lang)
      val ref = Tables.idOf(g, refName)
      val cr = scoresMap(CycleRank.run(g, ref, CycleRank.Config(3)))
      assert(cr.size == members.size + 1,
        s"$lang: expected ${members.size} members + ref, got ${cr.keySet.size}")
    }
  }

  test("fakeNews: unknown language is rejected") {
    intercept[IllegalArgumentException](NamedGraphs.fakeNews(spark, "xx"))
  }

  test("builder determinism: same spec, same edge set") {
    val g1 = NamedGraphs.wikipediaEn(spark)
    val g2 = NamedGraphs.wikipediaEn(spark)
    assert(g1.edges.count() == g2.edges.count())
    assert(g1.edges.except(g2.edges).isEmpty)
  }

  test("spec validation: quota above filler pool is rejected") {
    intercept[IllegalArgumentException] {
      NamedGraphs.Spec(Seq("h" -> 10), Set.empty, Seq.empty, nFiller = 5, nSinks = 1)
    }
  }

  test("sinks are dangling and fillers are sources") {
    val g = NamedGraphs.wikipediaEn(spark)
    import org.apache.spark.sql.functions.col
    val labels = g.labels.get
    val sinkIds = labels.where(col("label").startsWith("sink")).select("id")
    val outFromSinks = g.edges.join(sinkIds, g.edges("src") === sinkIds("id")).count()
    assert(outFromSinks == 0, "sinks must have no out-edges")
    val fillerIds = labels.where(col("label").startsWith("filler")).select("id")
    val intoFillers = g.edges.join(fillerIds, g.edges("dst") === fillerIds("id")).count()
    assert(intoFillers == 0, "fillers must have no in-edges")
  }
}
