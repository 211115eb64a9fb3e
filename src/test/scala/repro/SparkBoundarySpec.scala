package repro

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite

/** The driver-side engines, their result type and the loaders use no
  * Spark: a query on a resident graph goes index → kernel → arrays → file
  * lines, and an upload goes parse → index → files.
  */
class SparkBoundarySpec extends AnyFunSuite {

  private val sparkFree =
    Seq("Scores", "CheiRank", "TwoDRank", "CycleRank", "LocalCycleRank", "Ranking", "Scoring")
      .map(c => s"core/$c.scala") ++ Seq("graph/IndexedGraph.scala", "graph/GraphLoader.scala")

  test("the engines' arrays, Scores and the loaders import nothing from Spark") {
    for (f <- sparkFree) {
      val path = Paths.get("src/main/scala/repro", f)
      assert(!Files.readString(path).contains("org.apache.spark"), s"$path uses Spark")
    }
  }
}
