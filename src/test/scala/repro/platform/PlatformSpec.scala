package repro.platform

import java.nio.file.Files
import scala.jdk.CollectionConverters._
import scala.util.Using
import repro.SparkSpec
import repro.core.{CheiRank, CycleRank, GraphTestKit, PageRank, Scoring, TwoDRank}
import repro.graph.{DirectedGraph, GraphLoader}

/** End-to-end tests of the headless demo platform: task builder →
  * scheduler → executor → status → datastore (paper §III).
  */
class PlatformSpec extends SparkSpec with GraphTestKit {

  private def newStore(): Datastore = {
    val store = Datastore.temp(spark)
    store.putDataset("tiny", graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L)))
    store
  }

  test("task ids are deterministic content hashes") {
    val a = Task("d", "pagerank", Map("alpha" -> "0.85"))
    val b = Task("d", "pagerank", Map("alpha" -> "0.85"))
    val c = Task("d", "pagerank", Map("alpha" -> "0.3"))
    assert(a.id == b.id)
    assert(a.id != c.id)
  }

  test("a task's id does not depend on spelling out defaults") {
    assert(Task("d", "pagerank", Map.empty).id ==
      Task("d", "pagerank", Map("alpha" -> "0.85", "maxIter" -> "60", "tol" -> "1e-10")).id)
    assert(Task("d", "cyclerank", Map("ref" -> "1")).id ==
      Task("d", "cyclerank", Map("ref" -> "01", "k" -> "3", "sigma" -> "exp")).id)
    assert(Task("d", "pagerank", Map.empty).id != Task("d", "pagerank", Map("alpha" -> "0.3")).id)
  }

  test("query set add/remove/clear mirror the task-builder actions") {
    val t1 = Task("d", "pagerank", Map.empty)
    val t2 = Task("d", "cheirank", Map.empty)
    val qs = QuerySet.empty.add(t1).add(t2).add(t1) // duplicate ignored
    assert(qs.tasks == Vector(t1, t2))
    assert(qs.add(Task("d", "pagerank", Map("alpha" -> "0.85"))) == qs) // same id as t1
    assert(qs.remove(t1).tasks == Vector(t2))
    assert(qs.clear.tasks.isEmpty)
    assert(qs.id == QuerySet.empty.add(t1).add(t2).id)
  }

  test("task builder validates dataset and algorithm names") {
    val store = newStore()
    val tb = new TaskBuilder(store.datasetNames, AlgorithmRegistry.names)
    tb.build("tiny", "pagerank", Map.empty)
    intercept[IllegalArgumentException](tb.build("nope", "pagerank", Map.empty))
    intercept[IllegalArgumentException](tb.build("tiny", "nope", Map.empty))
  }

  test("task builder returns canonical params and rejects bad keys and values by name") {
    val tb = new TaskBuilder(Set("tiny"), AlgorithmRegistry.names)
    assert(tb.build("tiny", "pagerank", Map.empty) ==
      tb.build("tiny", "pagerank", Map("alpha" -> "0.85", "maxIter" -> "60", "tol" -> "1e-10")))
    for ((alg, params, named) <- Seq(
        ("cyclerank", Map("ref" -> "1", "K" -> "5"), "K=5"),
        ("pagerank", Map("alfa" -> "0.3"), "alfa=0.3"),
        ("pagerank", Map("ref" -> "1"), "ref=1"),
        ("pagerank", Map("alpha" -> "abc"), "alpha=abc"),
        ("personalized-cheirank", Map("ref" -> "x"), "ref=x"),
        ("2drank", Map("maxIter" -> "0"), "maxIter=0"),
        ("cyclerank", Map("ref" -> "1", "sigma" -> "cubic"), "sigma=cubic"),
        ("cyclerank", Map("ref" -> "1", "k" -> "1"), "k=1"))) {
      val e = intercept[IllegalArgumentException](tb.build("tiny", alg, params))
      assert(e.getMessage.contains(named), e.getMessage)
    }
    for (alg <- Seq("personalized-pagerank", "personalized-cheirank", "personalized-2drank",
                    "cyclerank")) {
      val e = intercept[IllegalArgumentException](tb.build("tiny", alg, Map.empty))
      assert(e.getMessage.contains("missing required parameter 'ref'"), e.getMessage)
    }
  }

  test("each registry entry equals its engine called with the same config") {
    val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L), (3L, 4L), (4L, 2L))
    val pr = PageRank.Config(alpha = 0.7, maxIter = 30, tol = 1e-12)
    val ppr = pr.copy(teleport = Seq(2L))
    val prParams = Map("alpha" -> "0.7", "maxIter" -> "30", "tol" -> "1e-12")
    val pprParams = prParams + ("ref" -> "2")
    val cases = Seq(
      ("pagerank", prParams, PageRank.run(g, pr)),
      ("personalized-pagerank", pprParams, PageRank.run(g, ppr)),
      ("cheirank", prParams, CheiRank.run(g, pr)),
      ("personalized-cheirank", pprParams, CheiRank.run(g, ppr)),
      ("2drank", prParams, TwoDRank.run(g, pr)),
      ("personalized-2drank", pprParams, TwoDRank.run(g, ppr)),
      ("cyclerank", Map("ref" -> "1", "k" -> "4", "sigma" -> "lin"),
        CycleRank.run(g, 1L, CycleRank.Config(4, Scoring.Linear))))
    assert(cases.map(_._1).toSet == AlgorithmRegistry.names)
    for ((name, params, direct) <- cases)
      assert(scoresMap(AlgorithmRegistry(name)(g, params)) == scoresMap(direct), name)
  }

  test("registry exposes exactly the paper's seven algorithms") {
    assert(AlgorithmRegistry.names == Set(
      "pagerank", "personalized-pagerank", "cheirank", "personalized-cheirank",
      "2drank", "personalized-2drank", "cyclerank"))
  }

  test("registry rejects unknown algorithms and missing parameters") {
    val g = graphOf((1L, 2L), (2L, 1L))
    intercept[IllegalArgumentException](AlgorithmRegistry("nope"))
    intercept[IllegalArgumentException] {
      AlgorithmRegistry("personalized-pagerank")(g, Map.empty) // no ref
    }
  }

  test("datastore round-trips datasets with labels") {
    val store = Datastore.temp(spark)
    val g = repro.graph.DirectedGraph.fromLabeledEdges(spark, Seq(("a", "b"), ("b", "a")))
    store.putDataset("lab", g)
    val loaded = store.loadDataset("lab")
    assert(loaded.labels.isDefined)
    val labels = loaded.labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(0L -> "a", 1L -> "b"))
    assert(loaded.edges.count() == 2)

    // A raw graph, not cleaned: a duplicate edge, a self-loop, a vertex (4)
    // that only a self-loop touches, and an isolated labelled vertex (7).
    import spark.implicits._
    val raw = DirectedGraph(Seq((1L, 2L), (1L, 2L), (2L, 1L), (2L, 2L), (4L, 4L)).toDF("src", "dst"),
      Some(Seq((1L, "one"), (2L, "two"), (7L, "seven")).toDF("id", "label")))
    store.putDataset("raw", raw)
    val rawLoaded = store.loadDataset("raw")
    assert(edgeSet(rawLoaded) == Set((1L, 2L), (2L, 1L)))
    assert(rawLoaded.vertices.collect().map(_.getLong(0)).toSet == Set(1L, 2L, 7L))
    assert(labelMap(rawLoaded) == Map(1L -> "one", 2L -> "two", 7L -> "seven"))
  }

  test("a malformed stored labels line is rejected naming the file, the line number and the line") {
    val dir = Files.createTempDirectory("store")
    val datasets = Files.createDirectories(dir.resolve("datasets"))
    val store = Datastore.at(dir.toString, spark)
    for ((name, lines, bad) <- Seq(
        ("notab", Seq("1\tone", "2two"), "line 2: '2two'"),
        ("noid", Seq("x\tex"), "line 1: 'x\tex'"),
        ("blank", Seq("1\tone", ""), "line 2: ''"))) {
      Files.write(datasets.resolve(s"$name.csv"), Seq("1,2").asJava)
      Files.write(datasets.resolve(s"$name.labels"), lines.asJava)
      val e = intercept[IllegalArgumentException](store.loadDataset(name))
      assert(e.getMessage.contains(datasets.resolve(s"$name.labels").toString) &&
        e.getMessage.contains(bad), e.getMessage)
    }
    // A label is everything after the first tab, verbatim.
    Files.write(datasets.resolve("ok.csv"), Seq("1,2").asJava)
    Files.write(datasets.resolve("ok.labels"), Seq("1\t one\tand two ", "2\t").asJava)
    assert(labelMap(store.loadDataset("ok")) == Map(1L -> " one\tand two ", 2L -> ""))
  }

  test("datastore rejects unknown dataset names") {
    val store = Datastore.temp(spark)
    intercept[IllegalArgumentException](store.loadDataset("missing"))
  }

  test("datastore loads a dataset only by its exact name") {
    val store = Datastore.temp(spark)
    store.putDataset("wiki.en", graphOf((1L, 2L), (2L, 1L)))
    val e = intercept[IllegalArgumentException](store.loadDataset("wiki"))
    assert(e.getMessage.contains("dataset 'wiki' not found"), e.getMessage)
    assert(store.loadDataset("wiki.en").edges.count() == 2)
  }

  test("storing a dataset again drops the labels stored under its name") {
    val store = Datastore.temp(spark)
    store.putDataset("d", repro.graph.DirectedGraph.fromLabeledEdges(spark, Seq(("a", "b"))))
    store.putDataset("d", graphOf((0L, 1L), (1L, 2L)))
    val loaded = store.loadDataset("d")
    assert(loaded.labels.isEmpty)
    assert(loaded.edges.count() == 2)
  }

  test("storing a dataset in another format replaces the stored file") {
    val f = Files.write(Files.createTempDirectory("upload").resolve("x.net"),
      Seq("*Vertices 2", "1 \"a\"", "2 \"b\"", "*Arcs", "1 2").asJava)
    val store = Datastore.temp(spark)
    store.uploadDataset("d", f)
    store.putDataset("d", graphOf((5L, 6L), (6L, 7L), (7L, 5L)))
    val stored = Files.list(store.root.resolve("datasets")).iterator().asScala
      .map(_.getFileName.toString).toSet
    assert(stored == Set("d.csv"))
    val loaded = store.loadDataset("d")
    assert(loaded.labels.isEmpty)
    assert(loaded.edges.count() == 3)
    store.uploadDataset("d", f)
    assert(store.loadDataset("d").edges.count() == 1)
  }

  test("uploading a dataset file again replaces it") {
    val dir = Files.createTempDirectory("upload")
    val one = Files.write(dir.resolve("one.net"), Seq("*Vertices 2", "*Arcs", "1 2").asJava)
    val two = Files.write(dir.resolve("two.net"),
      Seq("*Vertices 3", "*Arcs", "1 2", "2 3", "3 1").asJava)
    val store = Datastore.temp(spark)
    store.uploadDataset("d", one)
    store.uploadDataset("d", two)
    assert(store.loadDataset("d").edges.count() == 3)
  }

  test("storing a dataset leaves datasets with a longer name alone") {
    val store = Datastore.temp(spark)
    store.putDataset("wiki.en", graphOf((1L, 2L), (2L, 1L)))
    store.putDataset("wiki", graphOf((1L, 2L)))
    assert(store.datasetNames == Set("wiki", "wiki.en"))
    assert(store.loadDataset("wiki.en").edges.count() == 2)
  }

  test("writeResult returns the number of rows it wrote") {
    import spark.implicits._
    val store = Datastore.temp(spark)
    assert(store.writeResult("t", Seq((1L, 0.5), (2L, 0.25)).toDF("id", "score")) == 2)
    assert(store.readResult("t").get.count() == 2)
  }

  test("datastore rejects dataset names with a path separator") {
    val store = Datastore.temp(spark)
    val g = graphOf((1L, 2L))
    for (name <- Seq("../escape", "a/b", "a\\b")) {
      for (call <- Seq(() => store.loadDataset(name), () => store.putDataset(name, g))) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"dataset '$name' must not contain a path separator"),
          e.getMessage)
      }
    }
    assert(!java.nio.file.Files.exists(store.root.resolve("escape.csv")))
  }

  test("datastore rejects an upload with an unsupported extension") {
    val f = Files.createTempFile("graph", ".txt")
    Files.write(f, Seq("1 2").asJava)
    val store = Datastore.temp(spark)
    val e = intercept[IllegalArgumentException](store.uploadDataset("g", f))
    assert(e.getMessage.contains("unsupported dataset format .txt"), e.getMessage)
    assert(store.datasetNames.isEmpty)
  }

  /** The names of the files in the datastore's datasets directory. */
  private def storedFiles(store: Datastore): Set[String] =
    Using.resource(Files.list(store.root.resolve("datasets")))(
      _.iterator().asScala.map(_.getFileName.toString).toSet)

  private def edgeSet(g: DirectedGraph): Set[(Long, Long)] =
    g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def labelMap(g: DirectedGraph): Map[Long, String] =
    g.labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap

  test("a malformed upload is rejected naming its file and leaves the stored dataset alone") {
    val dir = Files.createTempDirectory("upload")
    val net = Files.write(dir.resolve("bad.net"),
      Seq("*Vertices 2", "1 \"a\"", "2 \"b\"", "*Arcs", "1 x").asJava)
    val asd = Files.write(dir.resolve("bad.asd"), Seq("5 5", "0 1").asJava)
    val store = Datastore.temp(spark)
    store.putDataset("d", DirectedGraph.fromLabeledEdges(spark, Seq(("a", "b"), ("b", "c"))))
    val stored = storedFiles(store)
    for ((f, line) <- Seq(net -> "line 5: '1 x'", asd -> "line 1: '5 5'"); name <- Seq("d", "new")) {
      val e = intercept[IllegalArgumentException](store.uploadDataset(name, f))
      assert(e.getMessage.contains(f.toString) && e.getMessage.contains(line), e.getMessage)
    }
    assert(store.datasetNames == Set("d"))
    assert(storedFiles(store) == stored)
    val loaded = store.loadDataset("d")
    assert(edgeSet(loaded) == Set((0L, 1L), (1L, 2L)))
    assert(labelMap(loaded) == Map(0L -> "a", 1L -> "b", 2L -> "c"))
  }

  test("an uploaded Pajek or ASD file is stored as an edge-list CSV plus its labels") {
    val dir = Files.createTempDirectory("upload")
    val net = Files.write(dir.resolve("g.net"), Seq(
      "*Vertices 3", "1 \"a\"", "2", "3 \"c\"", "*Arcs", "1 2", "*Edges", "2 3").asJava)
    val asd = Files.write(dir.resolve("g.asd"), Seq("4 2", "0 1", "1 2").asJava)
    val store = Datastore.temp(spark)
    store.uploadDataset("pj", net)
    store.uploadDataset("as", asd)
    assert(storedFiles(store) == Set("pj.csv", "pj.labels", "as.csv", "as.labels"))
    val direct = Seq("pj" -> GraphLoader.pajek(net.toString), "as" -> GraphLoader.asd(asd.toString))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    for (_ <- 1 to 2; (name, ix) <- direct) {
      val loaded = store.loadDataset(name)
      assert(edgeSet(loaded) == edgesOf(ix), name)
      assert(labelMap(loaded) == labelsOf(ix), name)
    }
    assert(spark.sparkContext.getPersistentRDDs.keySet == before, "a load persisted an RDD")
  }

  test("uploaded Pajek and ASD files run through the scheduler like direct engine calls") {
    val dir = Files.createTempDirectory("upload")
    val net = Files.write(dir.resolve("g.net"), Seq(
      "*Vertices 4", "1 \"a\"", "2 \"b\"", "3 \"c\"", "4 \"d\"",
      "*Arcs", "1 2", "2 3", "3 1", "*Edges", "3 4").asJava)
    val asd = Files.write(dir.resolve("g.asd"), Seq("5 4", "0 1", "1 2", "2 0", "2 3").asJava)
    val store = Datastore.temp(spark)
    store.uploadDataset("pj", net)
    store.uploadDataset("as", asd)
    val (pj, as) = (store.loadDataset("pj"), store.loadDataset("as"))
    for ((g, ix) <- Seq(pj -> GraphLoader.pajek(net.toString), as -> GraphLoader.asd(asd.toString))) {
      assert(g.index.ids.toSeq == ix.ids.toSeq)
      assert(edgeSet(g) == edgesOf(ix))
    }
    val sched = new Scheduler(store, workers = 2)
    try {
      val pr = PageRank.Config(maxIter = 20)
      val cases = Seq(
        Task("pj", "pagerank", Map("maxIter" -> "20")) -> PageRank.run(pj, pr),
        Task("pj", "cyclerank", Map("ref" -> "1")) -> CycleRank.run(pj, 1L),
        Task("as", "pagerank", Map("maxIter" -> "20")) -> PageRank.run(as, pr),
        Task("as", "cyclerank", Map("ref" -> "0")) -> CycleRank.run(as, 0L))
      cases.foreach { case (t, _) => sched.submit(t) }
      for ((t, direct) <- cases) {
        val what = s"${t.dataset} ${t.algorithm}"
        assert(sched.await(t.id) == TaskState.Done, what)
        assert(scoresMap(store.readResult(t.id).get) == scoresMap(direct), what)
      }
      // The ASD header declares vertex 4, which no edge touches.
      assert(scoresMap(store.readResult(cases(2)._1.id).get).contains(4L))
    } finally sched.shutdown()
  }

  test("end-to-end: scheduled pagerank equals direct invocation") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 2)
    try {
      val task = Task("tiny", "pagerank", Map("alpha" -> "0.85", "maxIter" -> "15"))
      val id = sched.submit(task)
      assert(sched.await(id) == TaskState.Done)
      val stored = scoresMap(store.readResult(id).get)
      val direct = scoresMap(PageRank.run(store.loadDataset("tiny"),
        PageRank.Config(alpha = 0.85, maxIter = 15)))
      assertMapsClose(stored, direct, 1e-9)
      val log = store.readLog(id)
      assert(log.exists(_.contains("start")) && log.exists(_.contains("done")))
    } finally sched.shutdown()
  }

  test("end-to-end: cyclerank task with parameters") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 1)
    try {
      val task = Task("tiny", "cyclerank", Map("ref" -> "1", "k" -> "3", "sigma" -> "exp"))
      sched.submit(task)
      assert(sched.await(task.id) == TaskState.Done)
      val stored = scoresMap(store.readResult(task.id).get)
      val direct = scoresMap(CycleRank.run(store.loadDataset("tiny"), 1L, CycleRank.Config(3)))
      assertMapsClose(stored, direct, 1e-10)
    } finally sched.shutdown()
  }

  test("a whole query set runs to completion") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 3)
    try {
      val tb = new TaskBuilder(store.datasetNames, AlgorithmRegistry.names)
      val qs = QuerySet.empty
        .add(tb.build("tiny", "pagerank", Map("maxIter" -> "10")))
        .add(tb.build("tiny", "cheirank", Map("maxIter" -> "10")))
        .add(tb.build("tiny", "2drank", Map("maxIter" -> "10")))
        .add(tb.build("tiny", "personalized-pagerank", Map("ref" -> "2", "maxIter" -> "10")))
      sched.submitAll(qs)
      qs.tasks.foreach(t => assert(sched.await(t.id) == TaskState.Done, t.algorithm))
      qs.tasks.foreach(t => assert(store.readResult(t.id).isDefined, t.algorithm))
    } finally sched.shutdown()
  }

  test("failing task is reported as Failed with a log entry") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 1)
    try {
      val bad = Task("tiny", "personalized-pagerank", Map("ref" -> "999"))
      sched.submit(bad)
      sched.await(bad.id) match {
        case TaskState.Failed(_) => // expected
        case other => fail(s"expected Failed, got $other")
      }
      val log = store.readLog(bad.id)
      assert(log.exists(_.contains("failed")))
      assert(log.exists(_.contains("java.lang.IllegalArgumentException")), log.mkString("\n"))
    } finally sched.shutdown()
  }

  test("a pagerank task with tol=NaN fails and names the value") {
    val store = newStore()
    val tb = new TaskBuilder(store.datasetNames, AlgorithmRegistry.names)
    val sched = new Scheduler(store, workers = 1)
    try {
      val msg = "tol must be finite and non-negative, got NaN"
      val built = intercept[IllegalArgumentException](tb.build("tiny", "pagerank", Map("tol" -> "NaN")))
      assert(built.getMessage.contains(msg) && built.getMessage.contains("tol=NaN"), built.getMessage)
      val submitted = intercept[IllegalArgumentException](
        sched.submit(Task("tiny", "pagerank", Map("tol" -> "NaN"))))
      assert(submitted.getMessage.contains(msg), submitted.getMessage)
    } finally sched.shutdown()
  }

  test("resubmitting a completed task does not re-run it") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 1)
    try {
      val t = Task("tiny", "pagerank", Map("maxIter" -> "10"))
      sched.submit(t)
      sched.await(t.id)
      sched.submit(t)
      assert(sched.status(t.id).contains(TaskState.Done))
    } finally sched.shutdown()
  }

  test("status returns None for unknown tasks") {
    val store = newStore()
    val sched = new Scheduler(store, workers = 1)
    try assert(sched.status("deadbeef").isEmpty)
    finally sched.shutdown()
  }
}
