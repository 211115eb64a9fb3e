package repro.platform

import repro.SparkSpec
import repro.core.{CycleRank, GraphTestKit, PageRank}

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

  test("query set add/remove/clear mirror the task-builder actions") {
    val t1 = Task("d", "pagerank", Map.empty)
    val t2 = Task("d", "cheirank", Map.empty)
    val qs = QuerySet.empty.add(t1).add(t2).add(t1) // duplicate ignored
    assert(qs.tasks == Vector(t1, t2))
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
    val sched = new Scheduler(store, workers = 1)
    try {
      val bad = Task("tiny", "pagerank", Map("tol" -> "NaN"))
      sched.submit(bad)
      sched.await(bad.id) match {
        case TaskState.Failed(reason) =>
          assert(reason.contains("tol must be finite and non-negative, got NaN"), reason)
        case other => fail(s"expected Failed, got $other")
      }
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
