package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession

import repro.core.{LocalGraph, Peeling}
import repro.engine.{DirectedGraph, VertexCentric}

/** The D-core decomposition benchmark.
  *
  * An untimed run (`trace = false`) sets the workload up several times,
  * then repeats the decomposition until `seconds` are spent and reports the
  * end-to-end metrics. A traced run times each layer from outside, records
  * Spark spans and samples executor stacks, and reports the per-layer
  * metrics. Every decomposition is checked against the `Peeling` reference.
  */
object Bench {

  final case class Opts(
      workload: String = "",
      seed: Option[Long] = None,
      seconds: Double = 10,
      trace: Boolean = false,
      workDir: File = new File("perfbench/work"),
      cores: Int = Bench.defaultCores,
      setupReps: Int = 3,
      sampleMs: Long = 20,
      noopRounds: Int = 12,
      info: Map[String, String] = Map.empty
  )

  final case class Metric(value: Double, unit: String)

  final case class Report(
      correct: Boolean,
      attempted: Int,
      failed: Int,
      metrics: Vector[(String, Metric)],
      failures: Vector[String],
      env: Map[String, Any],
      spans: Vector[Map[String, Any]]
  ) {
    def metric(name: String): Option[Metric] = metrics.collectFirst { case (`name`, m) => m }

    /** The one-line result: exactly `correct`, `attempted`, `failed`, `metrics`. */
    def resultJson: String = {
      val ms = new java.util.LinkedHashMap[String, Any]()
      metrics.foreach { case (n, m) => ms.put(n, Map("value" -> m.value, "unit" -> m.unit)) }
      val top = new java.util.LinkedHashMap[String, Any]()
      top.put("correct", correct); top.put("attempted", attempted); top.put("failed", failed); top.put("metrics", ms)
      Json.write(top)
    }
  }

  /** One timed decomposition with what the listener saw of it. */
  final case class Timed(
      seconds: Double,
      outcome: Option[Outcome],
      failure: Option[String],
      spans: SpanListener.Spans,
      cachedPeakBytes: Long
  ) {
    def cpuSeconds: Double = spans.tasks.map(_.cpuNs).sum / 1e9
    def shuffleMb: Double = spans.tasks.map(_.shuffleBytes).sum / 1e6
  }

  def defaultCores: Int =
    sys.env.get("SPARK_GRAFT_CPUS").flatMap(_.trim.toIntOption).filter(_ > 0)
      .getOrElse(Runtime.getRuntime.availableProcessors)

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Opts())
    val w = Workloads(o.workload)
    val report = run(w, o.seed.getOrElse(w.defaultSeed), o)
    o.workDir.mkdirs()
    val tag = s"${w.name}-seed${o.seed.getOrElse(w.defaultSeed)}-${if (o.trace) "trace" else "timed"}"
    write(new File(o.workDir, s"report-$tag.json"), Json.write(Map(
      "env" -> report.env, "failures" -> report.failures,
      "metrics" -> report.metrics.map { case (n, m) => Map("name" -> n, "value" -> m.value, "unit" -> m.unit) })))
    if (o.trace) write(new File(o.workDir, s"spans-$tag.json"), Json.write(report.spans))
    report.failures.foreach(f => Console.err.println(s"[perfbench] FAILED: $f"))
    println(Json.write(Map("env" -> report.env)))
    println(report.resultJson)
    Console.out.flush()
    sys.exit(0)
  }

  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil                          => require(o.workload.nonEmpty, "--workload is required"); o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v == "1"))
    case "--work-dir" :: v :: rest    => parse(rest, o.copy(workDir = new File(v)))
    case "--info" :: kv :: rest       =>
      val (k, v) = kv.span(_ != '=')
      parse(rest, o.copy(info = o.info + (k -> v.drop(1))))
    case other :: _                   => sys.error(s"unknown argument $other")
  }

  // ---------------------------------------------------------------- sessions

  def newSession(o: Opts): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      // The repository's shared test and bench session (SparkSpec) runs with
      // these two settings; the benchmark measures the code as they run it.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def stopSession(s: SparkSession): Unit = {
    s.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Seconds of each set-up in total and of its graph generation alone. */
  final case class SetupTimes(total: Vector[Double], generate: Vector[Double])

  /** Set up `o.setupReps` times, each time starting a session, generating
    * the graph and materialising its edges; keep the last session.
    */
  private def setUp(w: Workload, seed: Long, o: Opts): (SparkSession, DirectedGraph, SetupTimes) = {
    var last: Option[(SparkSession, DirectedGraph)] = None
    val times = Vector.fill(math.max(1, o.setupReps)) {
      last.foreach { case (s, _) => stopSession(s) }
      val t0 = System.nanoTime()
      val spark = newSession(o)
      val t1 = System.nanoTime()
      val g = w.graph(spark, seed)
      g.edges.cache().count()
      last = Some((spark, g))
      (secondsSince(t0), secondsSince(t1))
    }
    val (spark, g) = last.get
    (spark, g, SetupTimes(times.map(_._1), times.map(_._2)))
  }

  private def env(spark: SparkSession, w: Workload, seed: Long, g: LocalGraph, o: Opts): Map[String, Any] = Map(
    "workload" -> w.name,
    "algorithm" -> w.algo.name,
    "mode" -> w.mode.name,
    "seed" -> seed,
    "graph_seed" -> w.defaultSeed,
    "scale" -> w.scale,
    "vertices" -> g.n,
    "edges" -> g.m,
    "cores" -> o.cores,
    "master" -> spark.sparkContext.master,
    "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "spark" -> spark.version,
    "scala" -> scala.util.Properties.versionNumberString,
    "jdk" -> System.getProperty("java.version")
  ) ++ o.info

  // ----------------------------------------------------------- decompositions

  /** Runs decompositions of one graph, gates each, and cleans up after it. */
  final class Runner(spark: SparkSession, w: Workload, g: DirectedGraph, reference: Map[Long, Vector[Any]]) {
    val sc: SparkContext = spark.sparkContext
    val listener = new SpanListener
    sc.addSparkListener(listener)
    private var firstCounts: Option[(Int, Long)] = None

    def decompose(label: String): Timed = {
      val before = sc.getPersistentRDDs.keySet
      SpanListener.drain(sc)
      val base = listener.resetCachedPeak()
      val t0 = System.nanoTime()
      val res = Try(SpanListener.labelled(sc, label)(w.algo.decompose(g, w.mode)))
      val secs = secondsSince(t0)
      SpanListener.drain(sc)
      val peak = listener.cachedPeakBytes - base
      val spans = listener.spansOf(label)
      unpersistNew(sc, before)
      val failure = res match {
        case Failure(e) => Some(s"$label threw $e")
        case Success(out) =>
          Gate.check(out, reference, w.pinned).map(r => s"$label: $r").orElse {
            // Every decomposition of one graph must count the same.
            val counts = (out.rounds, out.messages)
            if (firstCounts.isEmpty) firstCounts = Some(counts)
            firstCounts.filter(_ != counts).map(c => s"$label: counts $counts differ from the first run's $c")
          }
      }
      Timed(secs, res.toOption, failure, spans, peak)
    }
  }

  /** Drop the RDDs cached since `before` was taken. */
  private def unpersistNew(sc: SparkContext, before: collection.Set[Int]): Unit =
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!before(id)) rdd.unpersist(blocking = true) }

  def run(w: Workload, seed: Long, o: Opts): Report = if (o.trace) traced(w, seed, o) else timed(w, seed, o)

  private def peelReference(g: DirectedGraph): (LocalGraph, Peeling.Result) = {
    val local = g.toLocal
    (local, Peeling.decompose(local).getOrElse(sys.error("peeling reference exceeded its budget")))
  }

  // ------------------------------------------------------------- timed runs

  private def timed(w: Workload, seed: Long, o: Opts): Report = {
    val (spark, g, setups) = setUp(w, seed, o)
    val (local, peel) = peelReference(g)
    val runner = new Runner(spark, w, g, w.algo.reference(peel))

    // The first decomposition runs in a JVM the set-ups have warmed up for
    // Spark SQL only, as a job submitted to a fresh driver does; its JIT
    // warm-up is part of what it measures.
    val runs = mutable.ArrayBuffer.empty[Timed]
    val t0 = System.nanoTime()
    do runs += runner.decompose(s"decompose-${runs.length + 1}")
    while (secondsSince(t0) < o.seconds)

    val all = runs.toVector
    val ok = all.filter(_.failure.isEmpty)
    val counts = ok.headOption.flatMap(_.outcome)
    val report = Report(
      correct = ok.length == all.length,
      attempted = all.length,
      failed = all.length - ok.length,
      metrics = Vector(
        "setup_s" -> Metric(Stats.median(setups.total), "s"),
        "decompose_s" -> Metric(Stats.median(runs.map(_.seconds).toSeq), "s"),
        "cpu_s" -> Metric(Stats.median(runs.map(_.cpuSeconds).toSeq), "s"),
        "rounds" -> Metric(counts.map(_.rounds.toDouble).getOrElse(0.0), "count"),
        "messages" -> Metric(counts.map(_.messages.toDouble).getOrElse(0.0), "count"),
        "shuffle_mb" -> Metric(Stats.median(runs.map(_.shuffleMb).toSeq), "MB"),
        "cached_peak_mb" -> Metric(Stats.median(runs.map(_.cachedPeakBytes / 1e6).toSeq), "MB"),
        "passed_frac" -> Metric(ok.length.toDouble / all.length, "frac")
      ),
      failures = all.flatMap(_.failure),
      env = env(spark, w, seed, local, o) ++ Map(
        "setup_s_samples" -> setups.total,
        "decompose_s_samples" -> runs.map(_.seconds).toVector,
        "cpu_s_samples" -> runs.map(_.cpuSeconds).toVector
      ),
      spans = Vector.empty
    )
    stopSession(spark)
    report
  }

  // ------------------------------------------------------------ traced runs

  private def traced(w: Workload, seed: Long, o: Opts): Report = {
    val spans = new SpanRecorder
    val (spark, g, setups) = spans.around("generate")(setUp(w, seed, o))

    val (local, peel) = spans.around("reference_peel")(peelReference(g))
    val peelS = Stats.median(Vector.fill(3) {
      val t = System.nanoTime(); Peeling.decompose(local); secondsSince(t)
    })
    val runner = new Runner(spark, w, g, w.algo.reference(peel))
    val sc = runner.sc
    // One warm-up decomposition first, so that the untraced and the traced
    // decomposition compared for the tracing overhead are equally warm.
    val warmup = spans.around("warmup")(runner.decompose("warmup"))

    val adjacencyS = spans.around("adjacency")(SpanListener.labelled(sc, "adjacency") {
      val t = System.nanoTime(); g.adjacency().count(); secondsSince(t)
    })
    val noopS = spans.around("noop")(SpanListener.labelled(sc, "noop") {
      val before = sc.getPersistentRDDs.keySet
      val s = NoopProgram.roundSeconds(g.adjacency().cache(), VertexCentric(Workloads.Blocks), o.noopRounds)
      unpersistNew(sc, before)
      s
    })

    val plain = spans.around("decompose-untraced")(runner.decompose("decompose-untraced"))
    val sampler = new StackSampler(o.sampleMs)
    sampler.start()
    val tr = try spans.around("decompose")(runner.decompose("decompose")) finally sampler.stop()

    val hindexNs = Kernels.hindexNs(local, peel)
    val dindexUs = Kernels.dindexUs(local, peel)

    SpanListener.drain(sc)
    for (label <- spans.labels) spans.addSpark(label, runner.listener.spansOf(label))

    val runs = Vector(warmup, plain, tr)
    val ok = runs.filter(_.failure.isEmpty)
    val out = tr.outcome.getOrElse(Outcome(0, 0L, Vector.empty, 0L, 0L, 0L, 0L, Map.empty))
    def count(n: Double) = Metric(n, "count")
    // Counters of the algorithm that did not run read 0.
    def acRounds(k: Int): Int = if (w.algo == Algo.AC) out.phaseRounds.lift(k).getOrElse(0) else 0
    def scRounds(ks: Int*): Int = if (w.algo == Algo.SC) ks.flatMap(out.phaseRounds.lift).sum else 0
    val prof = sampler.fractions

    val metrics = Vector(
      "graphgen.generate_s" -> Metric(Stats.median(setups.generate), "s"),
      "graph.adjacency_s" -> Metric(adjacencyS, "s"),
      "peel.decompose_s" -> Metric(peelS, "s"),
      "peel.delete_steps" -> count(peel.stats.deleteSteps),
      "ac.phase1_rounds" -> count(acRounds(0)),
      "ac.phase2_rounds" -> count(acRounds(1)),
      "ac.phase3_rounds" -> count(acRounds(2)),
      "ac.setup_messages" -> count(out.setupMessages),
      "sc.init_rounds" -> count(scRounds(0, 1)),
      "sc.main_rounds" -> count(scRounds(2)),
      "sc.local_messages" -> count(if (w.algo == Algo.SC) out.localMessages else 0L)
    ) ++ layerMetrics(w, out, tr, o.cores) ++ Vector(
      "engine.noop_round_s" -> Metric(noopS, "s"),
      "prof.size_est_memstore_frac" -> Metric(prof("size_est_memstore"), "frac"),
      "prof.size_est_cogroup_frac" -> Metric(prof("size_est_cogroup"), "frac"),
      "prof.vertex_compute_frac" -> Metric(prof("vertex_compute"), "frac"),
      "prof.engine_frac" -> Metric(prof("engine"), "frac"),
      "prof.serde_frac" -> Metric(prof("serde"), "frac"),
      "prof.shuffle_frac" -> Metric(prof("shuffle"), "frac"),
      "prof.other_frac" -> Metric(prof("other"), "frac"),
      "prof.samples" -> count(sampler.samples),
      "kernel.hindex_ns" -> Metric(hindexNs, "ns"),
      "kernel.dindex_us" -> Metric(dindexUs, "us"),
      "trace.decompose_s" -> Metric(tr.seconds, "s"),
      "trace.untraced_decompose_s" -> Metric(plain.seconds, "s"),
      "trace.overhead_s" -> Metric(tr.seconds - plain.seconds, "s")
    )
    val report = Report(
      correct = ok.length == runs.length,
      attempted = runs.length,
      failed = runs.length - ok.length,
      metrics = metrics,
      failures = runs.flatMap(_.failure),
      env = env(spark, w, seed, local, o) ++ Map("sample_ms" -> o.sampleMs),
      spans = spans.result
    )
    stopSession(spark)
    report
  }

  /** Metrics read from the Spark spans of the traced decomposition. */
  private def layerMetrics(w: Workload, out: Outcome, tr: Timed, cores: Int): Vector[(String, Metric)] = {
    val s = tr.spans
    val phaseS = Analysis.phaseSeconds(w.algo, s)
    val steps = Analysis.superstepJobs(w.algo, s.jobs, out.phaseRounds)
    val roundS = steps.map(_.seconds)
    val t = s.tasks
    def secs(f: SpanListener.TaskRec => Long, scale: Double) = t.map(f).sum / scale
    Algo.allPhases.map(p => s"phase.${p}_s" -> Metric(phaseS.getOrElse(p, 0.0), "s")) ++ Vector(
      "engine.round_s.p50" -> Metric(Stats.median(roundS), "s"),
      "engine.round_s.max" -> Metric(if (roundS.isEmpty) 0.0 else roundS.max, "s"),
      "engine.jobs" -> Metric(s.jobs.length.toDouble, "count"),
      "engine.stages" -> Metric(s.stages.length.toDouble, "count"),
      "engine.tasks" -> Metric(t.length.toDouble, "count"),
      "engine.idle_frac" -> Metric(1.0 - secs(_.runMs, 1e3) / (tr.seconds * cores), "frac"),
      "engine.shuffle_records" -> Metric(t.map(_.shuffleRecords).sum.toDouble, "count"),
      "engine.shuffle_write_s" -> Metric(secs(_.shuffleWriteNs, 1e9), "s"),
      "engine.fetch_wait_s" -> Metric(secs(_.fetchWaitMs, 1e3), "s"),
      "engine.task_deser_s" -> Metric(secs(_.deserMs, 1e3), "s"),
      "engine.spill_mb" -> Metric(secs(_.spillBytes, 1e6), "MB"),
      "engine.gc_s" -> Metric(secs(_.gcMs, 1e3), "s"),
      "engine.block_skew" -> Metric(Analysis.blockSkew(s, steps), "ratio"),
      "engine.changed_per_msg" -> Metric(out.changed.toDouble / math.max(1L, out.delivered), "ratio")
    )
  }

  private def write(f: File, s: String): Unit = {
    f.getParentFile.mkdirs()
    Files.write(f.toPath, s.getBytes(StandardCharsets.UTF_8))
  }
}

/** Harness-level spans (one per workload phase) and the Spark job, stage and
  * task spans under them, kept in memory and written when the run ends.
  */
final class SpanRecorder {
  private val out = Vector.newBuilder[Map[String, Any]]
  private val ids = mutable.LinkedHashMap.empty[String, Int]
  private var next = 0

  private def id(): Int = { next += 1; next }

  def labels: Seq[String] = ids.keys.toSeq

  /** Run `f` under a workload-phase span called `name`. */
  def around[A](name: String)(f: => A): A = {
    val t0 = System.currentTimeMillis()
    val a = f
    val i = id()
    ids(name) = i
    out += Map("id" -> i, "parent" -> 0, "kind" -> "phase", "name" -> name,
      "start_epoch_ms" -> t0, "end_epoch_ms" -> System.currentTimeMillis())
    a
  }

  /** Job, stage and task spans of the phase `label`; each names its parent. */
  def addSpark(label: String, s: SpanListener.Spans): Unit = {
    val parent = ids(label)
    val jobIds = mutable.HashMap.empty[Int, Int]
    val stageIds = mutable.HashMap.empty[Int, Int]
    for (j <- s.jobs) {
      val i = id(); jobIds(j.id) = i
      out += Map("id" -> i, "parent" -> parent, "kind" -> "job", "name" -> j.callSite,
        "start_epoch_ms" -> j.start, "end_epoch_ms" -> j.end, "job" -> j.id)
    }
    for (st <- s.stages) {
      val i = id(); stageIds(st.id) = i
      out += Map("id" -> i, "parent" -> jobIds.getOrElse(st.jobId, parent), "kind" -> "stage",
        "name" -> s"stage ${st.id}", "start_epoch_ms" -> st.start, "end_epoch_ms" -> st.end, "tasks" -> st.numTasks)
    }
    for (t <- s.tasks)
      out += Map("id" -> id(), "parent" -> stageIds.getOrElse(t.stageId, jobIds.getOrElse(t.jobId, parent)),
        "kind" -> "task", "name" -> s"task ${t.stageId}.${t.partition}", "partition" -> t.partition,
        "start_epoch_ms" -> t.launch, "end_epoch_ms" -> t.finish, "run_ms" -> t.runMs, "cpu_ns" -> t.cpuNs)
  }

  def result: Vector[Map[String, Any]] = out.result()
}

object Json {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
  def write(v: Any): String = mapper.writeValueAsString(v)
}
