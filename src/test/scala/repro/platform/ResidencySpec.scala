package repro.platform

import java.nio.file.Files
import scala.jdk.CollectionConverters._
import repro.{SparkSpec, SparkWork}
import repro.core.{GraphTestKit, PageRank, Reference}
import repro.graph.DirectedGraph

/** Resident datasets: a loaded graph and the driver-side index its first
  * query builds serve every later query on the name, until the name is
  * stored again or the residency cap evicts it.
  */
class ResidencySpec extends SparkSpec with GraphTestKit {

  private val edges = Reference.randomReciprocalGraph(n = 30, m = 110, seed = 91)

  /** A datastore holding `edges` as dataset `d`. */
  private def newStore(): Datastore = {
    val store = Datastore.temp(spark)
    store.putDataset("d", graphOfSeq(edges))
    store
  }

  test("after a dataset's first query, PageRank, CheiRank and CycleRank queries start no Spark job") {
    val store = newStore()
    val exec = new PlatformExecutor(store)
    val first = SparkWork.of(spark)(exec.execute(Task("d", "pagerank", Map("maxIter" -> "10"))))
    assert(first.jobs > 0, "building the index collects the cleaned edges")
    val ref = edges.head._1.toString
    // Every registry algorithm: 2DRank combines PageRank and CheiRank.
    for (task <- Seq(
        Task("d", "pagerank", Map("maxIter" -> "10")),
        Task("d", "personalized-pagerank", Map("ref" -> ref)),
        Task("d", "cheirank", Map("maxIter" -> "10")),
        Task("d", "personalized-cheirank", Map("ref" -> ref)),
        Task("d", "2drank", Map("maxIter" -> "10")),
        Task("d", "personalized-2drank", Map("ref" -> ref)),
        Task("d", "cyclerank", Map("ref" -> ref, "k" -> "3")),
        Task("d", "cyclerank", Map("ref" -> ref, "k" -> "5")))) {
      val work = SparkWork.of(spark)(exec.execute(task))
      assert(work == SparkWork(0, 0), s"${task.algorithm} ${task.params}: $work")
    }
  }

  test("a re-put and a re-upload after a query serve the new graph and release the old index") {
    val store = newStore()
    val exec = new PlatformExecutor(store)
    val task = Task("d", "pagerank", Map("maxIter" -> "20"))
    val scores = () => scoresMap(store.readResult(task.id).get)
    val old = store.loadDataset("d")
    exec.execute(task)
    assert(store.loadDataset("d") eq old)

    val chain = Seq((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L))
    store.putDataset("d", graphOfSeq(chain))
    exec.execute(task)
    val put = store.loadDataset("d")
    assert(put ne old)
    assert(put.index.numEdges == chain.size, "the re-put kept the old index")
    assert(scores() == scoresMap(PageRank.run(graphOfSeq(chain), PageRank.Config(maxIter = 20))))

    val net = Files.write(Files.createTempDirectory("upload").resolve("g.net"),
      Seq("*Vertices 3", "*Arcs", "1 2", "2 1", "2 3").asJava)
    store.uploadDataset("d", net)
    exec.execute(task)
    val uploaded = store.loadDataset("d")
    assert(uploaded ne put)
    assert(uploaded.index.ids.toSeq == Seq(1L, 2L, 3L), "the re-upload kept the old index")
    assert(scores().keySet == Set(1L, 2L, 3L))
    assert(scores() == scoresMap(PageRank.run(
      graphOf((1L, 2L), (2L, 1L), (2L, 3L)), PageRank.Config(maxIter = 20))))
  }

  test("a query holding a released index finishes with the same answer") {
    val store = newStore()
    val g = store.loadDataset("d")
    val cfg = PageRank.Config(maxIter = 15, tol = 0.0)
    val before = scoresMap(PageRank.run(g, cfg))
    store.putDataset("d", graphOf((1L, 2L)))
    assert(store.loadDataset("d") ne g)
    assert(scoresMap(PageRank.run(g, cfg)) == before)
  }

  test("two workers' concurrent first queries build one index") {
    val store = newStore()
    val ref = edges.head._1.toString
    val tasks = Seq(
      Task("d", "pagerank", Map("maxIter" -> "10")),
      Task("d", "cheirank", Map("maxIter" -> "10")),
      Task("d", "cyclerank", Map("ref" -> ref)),
      Task("d", "personalized-pagerank", Map("ref" -> ref)))
    // After its build, the index serves every query without a Spark job,
    // so the four queries start exactly the jobs of one build.
    val fresh = newStore()
    val oneBuild = SparkWork.of(spark)(fresh.loadDataset("d").index).jobs
    val sched = new Scheduler(store, workers = 2)
    val work = SparkWork.of(spark) {
      try {
        tasks.foreach(sched.submit)
        tasks.foreach(t => assert(sched.await(t.id) == TaskState.Done, t.algorithm))
      } finally sched.shutdown()
    }
    assert(oneBuild > 0 && work.jobs == oneBuild, s"one build: $oneBuild jobs; the queries: $work")
  }

  test("going over the residency cap evicts the least recently used dataset") {
    val store = new Datastore(Files.createTempDirectory("repro-datastore"), spark, residentEdgeCap = 10)
    for (name <- Seq("a", "b", "c")) store.putDataset(name, graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L)))
    val a = store.loadDataset("a")
    val b = store.loadDataset("b")
    PageRank.run(a)
    PageRank.run(b)
    assert(store.loadDataset("a") eq a) // a is now the most recently used
    val c = store.loadDataset("c") // 12 edges > 10: b goes
    assert(store.loadDataset("a") eq a)
    assert(store.loadDataset("c") eq c)
    val b2 = store.loadDataset("b") // 12 edges again: a, now the least recently used, goes
    assert(b2 ne b)
    assert(store.loadDataset("c") eq c)
    assert(store.loadDataset("a") ne a, "the evicted dataset was still resident")
  }

  test("PageRank on a resident graph equals a run on a fresh graph of the same edges, bit for bit") {
    val store = newStore()
    val exec = new PlatformExecutor(store)
    exec.execute(Task("d", "cheirank", Map.empty))
    exec.execute(Task("d", "cyclerank", Map("ref" -> edges.head._1.toString)))
    for (cfg <- Seq(PageRank.Config(), PageRank.Config(alpha = 0.3, teleport = Seq(edges.head._1)))) {
      val resident = scoresMap(PageRank.run(store.loadDataset("d"), cfg))
      assert(resident == scoresMap(PageRank.run(DirectedGraph.fromEdges(spark, edges), cfg)))
    }
  }
}
