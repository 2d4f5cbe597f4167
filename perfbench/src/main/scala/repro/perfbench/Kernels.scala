package repro.perfbench

import scala.collection.immutable.ArraySeq

import repro.core.{DIndex, HIndex, LocalGraph, Peeling}
import repro.engine.{EngineMode, SuperstepEngine, VertexAdj, VertexProgram}
import org.apache.spark.rdd.RDD

/** Micro-timings of the vertex-compute kernels on inputs taken from the
  * workload's own graph and its decomposition.
  */
object Kernels {

  private val MaxCalls = 100000
  private val MaxDIndexCalls = 2000

  /** Nanoseconds per `HIndex.hIndex` call. The inputs are the multisets
    * Phase II meets at its fixpoint: for each vertex v and k in
    * [0, kmax(v)], lmax(k, u) over the out-neighbours u with kmax(u) >= k.
    */
  def hindexNs(g: LocalGraph, peel: Peeling.Result): Double = {
    val lmax = g.ids.map(peel.anchored)
    val inputs = (0 until g.n).iterator.flatMap { v =>
      (0 until lmax(v).length).iterator.map { k =>
        ArraySeq.unsafeWrapArray(g.outN(v).filter(u => lmax(u).length > k).map(u => lmax(u)(k)))
      }
    }.take(MaxCalls).toVector
    perCall(inputs.length)(inputs.foreach(xs => sink += HIndex.hIndex(xs))) * 1e9
  }

  /** Microseconds per `DIndex.apply` call. The inputs are, for each vertex,
    * the skyline pairs of its in- and of its out-neighbours.
    */
  def dindexUs(g: LocalGraph, peel: Peeling.Result): Double = {
    val sky = peel.skyline
    val sk = g.ids.map(sky)
    val inputs = (0 until math.min(g.n, MaxDIndexCalls)).map { v =>
      (g.inN(v).toVector.flatMap(sk(_)), g.outN(v).toVector.flatMap(sk(_)))
    }
    perCall(inputs.length)(inputs.foreach { case (rin, rout) => sink += DIndex(rin, rout).length }) * 1e6
  }

  @volatile private var sink = 0L

  /** Seconds per call: median of five timed passes after one warm-up pass. */
  private def perCall(calls: Int)(pass: => Unit): Double = {
    if (calls == 0) return 0.0
    pass
    val times = Vector.fill(5) {
      val t0 = System.nanoTime()
      pass
      (System.nanoTime() - t0) / 1e9
    }
    Stats.median(times) / calls
  }
}

/** A vertex program that does nothing but keep `rounds` supersteps going:
  * every vertex sends one message to itself per round. Run through the
  * engine, it measures the per-superstep floor on a graph's adjacency.
  */
final class NoopProgram(rounds: Int) extends VertexProgram[VertexAdj, Int, Int] {
  def initialState(vid: Long, ctx: VertexAdj): Int = 0
  def initialMessages(vid: Long, ctx: VertexAdj, s: Int): Iterator[(Long, Int)] = Iterator((vid, 1))
  def compute(vid: Long, ctx: VertexAdj, s: Int, msgs: Seq[Int]): (Int, Iterator[(Long, Int)], Boolean) = {
    val r = msgs.max
    (r, if (r < rounds) Iterator((vid, r + 1)) else Iterator.empty, true)
  }
}

object NoopProgram {

  /** Median seconds per superstep of `rounds` no-op supersteps. */
  def roundSeconds(adj: RDD[(Long, VertexAdj)], mode: EngineMode, rounds: Int): Double = {
    val ends = Vector.newBuilder[Long]
    val t0 = System.nanoTime()
    SuperstepEngine.run(adj, new NoopProgram(rounds), mode, onRoundEnd = (_: Int, _: RDD[(Long, Int)]) => ends += System.nanoTime())
    val marks = t0 +: ends.result()
    // The first span also holds the engine's set-up (partitioning, count).
    Stats.median(marks.zip(marks.drop(1)).drop(1).map { case (a, b) => (b - a) / 1e9 })
  }
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
