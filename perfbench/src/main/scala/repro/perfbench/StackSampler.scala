package repro.perfbench

import scala.jdk.CollectionConverters._

/** Samples the stacks of Spark's executor task threads at a fixed interval
  * and charges each busy (RUNNABLE) sample to one bucket: the innermost
  * frame that belongs to a bucket decides. `SizeEstimator` samples are split
  * by whether the estimate was made for the block manager's MemoryStore
  * (persisting deserialized blocks) or for the spillable map of a cogroup,
  * join or sort.
  */
final class StackSampler(intervalMs: Long) {
  import StackSampler._

  private val counts = new Array[Long](Buckets.length)
  @volatile private var running = false
  private var thread: Thread = _

  def start(): Unit = {
    running = true
    thread = new Thread(() => {
      while (running) {
        Thread.getAllStackTraces.asScala.foreach { case (t, stack) =>
          if (t.getName.startsWith(ExecutorThreadPrefix) && t.getState == Thread.State.RUNNABLE && stack.nonEmpty) {
            counts(classify(stack)) += 1
          }
        }
        Thread.sleep(intervalMs)
      }
    }, "perfbench-stack-sampler")
    thread.setDaemon(true)
    thread.start()
  }

  def stop(): Unit = {
    running = false
    if (thread != null) thread.join()
  }

  /** Busy samples taken; read after `stop`. */
  def samples: Long = counts.sum

  /** Share of busy samples per bucket name, summing to 1; read after `stop`. */
  def fractions: Map[String, Double] = {
    val total = math.max(1L, counts.sum).toDouble
    Buckets.indices.map(i => Buckets(i) -> counts(i) / total).toMap
  }
}

object StackSampler {
  val ExecutorThreadPrefix = "Executor task launch worker"

  val Buckets: Vector[String] =
    Vector("size_est_memstore", "size_est_cogroup", "serde", "shuffle", "vertex_compute", "engine", "other")

  private val SizeEstMem    = 0
  private val SizeEstCogrp  = 1
  private val Serde         = 2
  private val Shuffle       = 3
  private val VertexCompute = 4
  private val Engine        = 5
  private val Other         = 6

  private val serdePrefixes = Seq(
    "java.io.ObjectOutputStream", "java.io.ObjectInputStream", "java.io.ObjectStreamClass",
    "org.apache.spark.serializer.", "com.esotericsoftware.kryo."
  )
  private val shufflePrefixes = Seq(
    "org.apache.spark.shuffle.", "org.apache.spark.storage.ShuffleBlockFetcherIterator",
    "org.apache.spark.storage.DiskBlockObjectWriter", "org.apache.spark.network."
  )

  /** Bucket index of one stack, innermost frame first. */
  def classify(stack: Array[StackTraceElement]): Int = {
    var i = 0
    while (i < stack.length) {
      val c = stack(i).getClassName
      if (c.startsWith("org.apache.spark.util.SizeEstimator")) return sizeEstimatorCaller(stack, i + 1)
      if (serdePrefixes.exists(c.startsWith)) return Serde
      if (shufflePrefixes.exists(c.startsWith)) return Shuffle
      if (c.startsWith("repro.core.")) return VertexCompute
      if (c.startsWith("repro.engine.")) return Engine
      i += 1
    }
    Other
  }

  /** Owners of the size-tracking collections `SizeEstimator` samples. Both
    * reach it through `SizeTracker` and a `SizeTracking*` collection, which
    * are skipped: the first frame outward that names an owner decides.
    */
  private val memstoreOwners = Seq(
    "org.apache.spark.storage.memory.MemoryStore", "org.apache.spark.storage.memory.DeserializedValuesHolder"
  )
  private val cogroupOwners = Seq(
    "org.apache.spark.util.collection.ExternalAppendOnlyMap", "org.apache.spark.util.collection.ExternalSorter",
    "org.apache.spark.util.collection.Spillable"
  )

  private def sizeEstimatorCaller(stack: Array[StackTraceElement], from: Int): Int = {
    var i = from
    while (i < stack.length) {
      val c = stack(i).getClassName
      if (memstoreOwners.exists(c.startsWith)) return SizeEstMem
      if (cogroupOwners.exists(c.startsWith)) return SizeEstCogrp
      i += 1
    }
    Other
  }
}
