package repro.engine

import org.apache.spark.{HashPartitioner, Partitioner, TaskContext}
import org.apache.spark.rdd.RDD

import scala.collection.mutable
import scala.reflect.ClassTag

/** A vertex program in the Pregel/GRAPE sense (paper Sec. 2): per-vertex
  * state `S`, read-only per-vertex context `C` (typically adjacency), and
  * messages `M` exchanged along edges. A vertex is inactive until it
  * receives a message (or, with `selfWake`, while its own state is still
  * settling — needed by Alg. 4 whose refinement condition depends on the
  * vertex's *own* bound).
  */
trait VertexProgram[C, S, M] extends Serializable {
  def initialState(vid: Long, ctx: C): S

  /** Broadcast performed once before superstep 1 (e.g. Alg. 2 line 4). */
  def initialMessages(vid: Long, ctx: C, s: S): Iterator[(Long, M)]

  /** One vertex update: returns (new state, outbound messages, changed?). */
  def compute(vid: Long, ctx: C, s: S, msgs: Seq[M]): (S, Iterator[(Long, M)], Boolean)

  /** If true, a vertex that changed re-runs next superstep without inbound
    * messages (block-centric mode re-runs it inside the local loop).
    */
  def selfWake: Boolean = false
}

/** Execution mode. `VertexCentric`: every message crosses the network and is
  * delivered next superstep. `BlockCentric`: vertices are grouped into
  * blocks (= Spark partitions here, standing in for machines); messages
  * within a block are delivered immediately and iterated to local
  * convergence; only inter-block messages are communication (Sec. 4.3).
  */
sealed trait EngineMode { def name: String }
final case class VertexCentric(numPartitions: Int) extends EngineMode { val name = "vertex-centric" }
final case class BlockCentric(assign: Long => Int, numBlocks: Int) extends EngineMode { val name = "block-centric" }

/** Per-run accounting mirroring the paper's metrics: rounds to converge
  * (Table 4), messages per round / total communication overhead (Figs. 4–7),
  * and the convergence rate — the fraction of vertices whose state is final
  * after r rounds (Fig. 3).
  */
final case class EngineMetrics(
    mode: String,
    rounds: Int,
    remoteMsgsPerRound: Vector[Long], // index 0 = initial broadcast
    localMsgsPerRound: Vector[Long],
    changedPerRound: Vector[Long], // index r-1 = vertices changed in round r
    nVertices: Long,
    lastChangedHist: Map[Int, Long] // round -> #vertices whose last change was that round
) {
  def totalMessages: Long = remoteMsgsPerRound.sum
  def totalLocalMessages: Long = localMsgsPerRound.sum

  /** Fraction of vertices whose state never changes after round r. */
  def convergenceRate(r: Int): Double =
    if (nVertices == 0) 1.0
    else lastChangedHist.filter(_._1 <= r).values.sum.toDouble / nVertices

  /** Smallest round by which `frac` of the vertices have converged. */
  def roundsToConverge(frac: Double): Int =
    (0 to rounds).find(r => convergenceRate(r) >= frac).getOrElse(rounds)
}

private final case class BlockPartitioner(assign: Long => Int, numBlocks: Int) extends Partitioner {
  def numPartitions: Int = numBlocks
  def getPartition(key: Any): Int = {
    val b = assign(key.asInstanceOf[Long]) % numBlocks
    if (b < 0) b + numBlocks else b
  }
}

/** Synchronous superstep executor over Spark RDDs.
  *
  * The vertices are partitioned once, by `partitioner(mode)`, and never move
  * again. Each round shuffles the messages to their target's partition, zips
  * each state partition with its partition of messages (narrow on the state
  * side), runs the vertex program, and persists the partition's new states,
  * outbox and counters as one record. Terminates when no messages are in
  * flight (and, for `selfWake` programs, no vertex is still settling) — the
  * paper's "no vertex broadcasts messages" condition — and fails if that
  * has not happened within `maxRounds`.
  *
  * Every round record, round 0 included, and the final states are
  * local-checkpointed: Spark cuts their lineage when the job that
  * materializes them ends, so each round's tasks ship the previous record's
  * checkpoint, the message shuffle and the program, and never the caller's
  * input, earlier phases or earlier rounds. The input may be released once
  * `run` returns. This is a deliberate trade: the cached blocks are the only
  * copy of a record, so losing an executor mid-run fails the run instead of
  * recomputing it. Spark logs a WARN for every round when the previous
  * record is released ("... was locally checkpointed, its lineage has been
  * truncated and cannot be recomputed after unpersisting"); it is expected.
  */
object SuperstepEngine {

  private final case class VR[C, S](ctx: C, state: S, changed: Boolean, lastChanged: Int)

  /** One partition's counters for one round. */
  private final case class Counts(vertices: Long, remote: Long, local: Long, changedNow: Long, changed: Long) {
    def +(o: Counts): Counts =
      Counts(vertices + o.vertices, remote + o.remote, local + o.local, changedNow + o.changedNow, changed + o.changed)
  }
  private val NoCounts = Counts(0L, 0L, 0L, 0L, 0L)

  /** The record a round persists for each partition: its vertices after the
    * round, the messages they sent to be delivered next round (`msgs(i)` to
    * `targets(i)`, in send order), and the partition's counters. Parallel
    * arrays rather than arrays of pairs keep the cached copy small.
    */
  private final case class Step[C, S, M](
      vids: Array[Long],
      vrs: Array[VR[C, S]],
      targets: Array[Long],
      msgs: Array[M],
      counts: Counts
  )

  final case class RunResult[S](states: RDD[(Long, S)], metrics: EngineMetrics)

  /** The Spark partitioner `run` places the vertices of `mode` with. Input
    * already partitioned by it enters `run` without a shuffle, joins between
    * such RDDs need none, and the states `run` returns carry it.
    */
  def partitioner(mode: EngineMode): Partitioner = mode match {
    case VertexCentric(p)   => new HashPartitioner(p)
    case BlockCentric(a, b) => BlockPartitioner(a, b)
  }

  /** Runs `program` on `vertices` until no messages are in flight.
    *
    * `onRoundEnd(r, states)` is called after round `r` with the states it
    * left; `states` is valid only during the callback, since the round record
    * it reads is released in the next round.
    */
  def run[C: ClassTag, S: ClassTag, M: ClassTag](
      vertices: RDD[(Long, C)],
      program: VertexProgram[C, S, M],
      mode: EngineMode,
      maxRounds: Int = 5000,
      onRoundEnd: (Int, RDD[(Long, S)]) => Unit = (_: Int, _: RDD[(Long, S)]) => ()
  ): RunResult[S] = {
    val part = partitioner(mode)
    val localDelivery = mode.isInstanceOf[BlockCentric]
    val selfWake = program.selfWake

    // Round 0: initial states and the initial broadcast, which is delivered
    // in round 1 (locally or not). `localCheckpoint` persists each record
    // (memory and disk) and cuts its lineage once its first job ends.
    var stepped: RDD[Step[C, S, M]] = vertices
      .partitionBy(part)
      .mapPartitionsWithIndex(
        (pid, it) => Iterator(initialStep(pid, it, program, localDelivery, part)),
        preservesPartitioning = true
      )
      .localCheckpoint()
    val init = stepped.map(_.counts).fold(NoCounts)(_ + _)

    val remotePerRound = Vector.newBuilder[Long]
    val localPerRound  = Vector.newBuilder[Long]
    val changedPerRound = Vector.newBuilder[Long]
    remotePerRound += init.remote
    localPerRound += init.local

    var pendingMsgs = init.remote + init.local
    var pendingChanged = 0L
    def pending: Boolean = pendingMsgs > 0 || (selfWake && !localDelivery && pendingChanged > 0)
    var round = 0

    while (round < maxRounds && pending) {
      round += 1
      val r = round
      val msgs = stepped.flatMap(s => s.targets.iterator.zip(s.msgs.iterator)).partitionBy(part)
      val next = states(stepped)
        .zipPartitions(msgs, preservesPartitioning = true) { (vs, ms) =>
          Iterator(stepPartition(TaskContext.getPartitionId(), r, vs, ms, program, localDelivery, part, selfWake, maxRounds))
        }
        .localCheckpoint()

      val c = next.map(_.counts).fold(NoCounts)(_ + _)
      remotePerRound += c.remote
      localPerRound += c.local
      changedPerRound += c.changedNow
      pendingMsgs = c.remote
      pendingChanged = c.changed

      // `next` no longer depends on `stepped`: its lineage was cut when the
      // fold's job ended.
      stepped.unpersist(blocking = false)
      stepped = next
      onRoundEnd(round, states(stepped).mapValues(_.state))
    }
    require(!pending, s"engine did not converge within $maxRounds rounds")

    val finalStates = states(stepped).mapValues(_.state).localCheckpoint()
    finalStates.count()
    val hist: Map[Int, Long] = states(stepped).map(_._2.lastChanged).countByValue().map { case (k, v) => (k, v) }.toMap
    stepped.unpersist(blocking = false)

    val metrics = EngineMetrics(
      mode.name,
      round,
      remotePerRound.result(),
      localPerRound.result(),
      changedPerRound.result(),
      init.vertices,
      hist
    )
    RunResult(finalStates, metrics)
  }

  private def states[C, S, M](stepped: RDD[Step[C, S, M]]): RDD[(Long, VR[C, S])] =
    stepped.mapPartitions(_.flatMap(s => s.vids.iterator.zip(s.vrs.iterator)), preservesPartitioning = true)

  /** Round 0 of one partition: initial states and the initial broadcast. In
    * block-centric mode only the messages that cross a block boundary are
    * communication.
    */
  private def initialStep[C, S, M: ClassTag](
      pid: Int,
      it: Iterator[(Long, C)],
      program: VertexProgram[C, S, M],
      localDelivery: Boolean,
      part: Partitioner
  ): Step[C, S, M] = {
    val vids = mutable.ArrayBuilder.make[Long]
    val vrs = mutable.ArrayBuffer.empty[VR[C, S]]
    val targets = mutable.ArrayBuilder.make[Long]
    val msgs = mutable.ArrayBuffer.empty[M]
    var local = 0L
    it.foreach { case (vid, ctx) =>
      val s = program.initialState(vid, ctx)
      vids += vid
      vrs += VR(ctx, s, changed = false, lastChanged = 0)
      program.initialMessages(vid, ctx, s).foreach { case (tgt, m) =>
        targets += tgt
        msgs += m
        if (localDelivery && part.getPartition(tgt) == pid) local += 1
      }
    }
    Step(vids.result(), vrs.toArray, targets.result(), msgs.toArray, Counts(vrs.length.toLong, msgs.length - local, local, 0L, 0L))
  }

  /** Run the vertex program for one superstep within a partition. In
    * block-centric mode, iterate to local convergence: messages whose target
    * lives in the same block are delivered to the next *sub-iteration*
    * rather than the next round. A block that has not settled after
    * `maxSubIters` sub-iterations fails the run.
    */
  private def stepPartition[C, S, M: ClassTag](
      pid: Int,
      round: Int,
      states: Iterator[(Long, VR[C, S])],
      msgs: Iterator[(Long, M)],
      program: VertexProgram[C, S, M],
      localDelivery: Boolean,
      part: Partitioner,
      selfWake: Boolean,
      maxSubIters: Int
  ): Step[C, S, M] = {
    val verts = mutable.LinkedHashMap.empty[Long, VR[C, S]]
    states.foreach { case (vid, vr) => verts(vid) = vr }
    var inbox = mutable.HashMap.empty[Long, mutable.ArrayBuffer[M]]
    msgs.foreach { case (vid, m) =>
      // messages to unknown vertices are dropped (cannot happen for
      // neighbor-addressed messages)
      if (verts.contains(vid)) inbox.getOrElseUpdate(vid, mutable.ArrayBuffer.empty) += m
    }
    val targets = mutable.ArrayBuilder.make[Long]
    val remoteOut = mutable.ArrayBuffer.empty[M]
    var localSent = 0L

    var active: Iterable[Long] =
      verts.iterator.collect {
        case (vid, vr) if inbox.contains(vid) || (selfWake && vr.changed) => vid
      }.toVector

    var subIter = 0
    while (active.nonEmpty) {
      subIter += 1
      if (subIter > maxSubIters)
        throw new IllegalStateException(s"block $pid did not settle within $maxSubIters local iterations in round $round")
      val nextInbox = mutable.HashMap.empty[Long, mutable.ArrayBuffer[M]]
      val nextActive = mutable.LinkedHashSet.empty[Long]
      for (vid <- active) {
        val vr = verts(vid)
        val ms = inbox.getOrElse(vid, mutable.ArrayBuffer.empty[M]).toSeq
        val (s2, out, ch) = program.compute(vid, vr.ctx, vr.state, ms)
        verts(vid) = VR(vr.ctx, s2, ch, if (ch) round else vr.lastChanged)
        out.foreach { case (tgt, m) =>
          if (localDelivery && part.getPartition(tgt) == pid && verts.contains(tgt)) {
            nextInbox.getOrElseUpdate(tgt, mutable.ArrayBuffer.empty) += m
            localSent += 1
            nextActive += tgt
          } else {
            targets += tgt
            remoteOut += m
          }
        }
        if (localDelivery && selfWake && ch) nextActive += vid
      }
      if (!localDelivery) {
        active = Nil
      } else {
        inbox = nextInbox
        active = nextActive.toVector
      }
    }

    var changedNow = 0L
    var changed = 0L
    verts.valuesIterator.foreach { vr =>
      if (vr.lastChanged == round) changedNow += 1
      if (vr.changed) changed += 1
    }
    Step(
      verts.keysIterator.toArray,
      verts.valuesIterator.toArray,
      targets.result(),
      remoteOut.toArray,
      Counts(verts.size.toLong, remoteOut.length.toLong, localSent, changedNow, changed)
    )
  }
}
