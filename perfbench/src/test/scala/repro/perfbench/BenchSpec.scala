package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

import repro.core.{LocalGraph, Peeling}
import repro.engine.{DirectedGraph, EngineMode}
import repro.graphgen.ExampleGraphs

/** The harness itself, run end to end on the paper's Figure-2 graph. */
class BenchSpec extends AnyFunSuite {

  private val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
  private def names(section: String): Set[String] =
    spec.get(section).elements().asScala.map(_.get("name").asText()).toSet

  private val opts = Bench.Opts(
    seconds = 0,
    cores = 2,
    setupReps = 2,
    sampleMs = 5,
    noopRounds = 3,
    workDir = new File("target/bench-spec")
  )

  private def run(w: Workload, trace: Boolean): Bench.Report =
    Bench.run(w, w.defaultSeed, opts.copy(workload = w.name, trace = trace))

  for (algo <- Seq(Algo.AC, Algo.SC)) {
    test(s"untraced run on Figure 2 (${algo.name}) reports every end-to-end metric and passes the gate") {
      val r = run(Workloads.figure2(algo), trace = false)
      assert(r.failures.isEmpty)
      assert(r.correct && r.failed == 0 && r.attempted >= 1)
      assert(r.metrics.map(_._1).toSet == names("end_to_end"))
      assert(r.metric("passed_frac").get.value == 1.0)
      assert(r.metric("rounds").get.value > 0)
      assert(r.metric("decompose_s").get.value > 0)
    }

    test(s"traced run on Figure 2 (${algo.name}) reports every per-layer metric") {
      val r = run(Workloads.figure2(algo), trace = true)
      assert(r.failures.isEmpty)
      assert(r.correct && r.failed == 0 && r.attempted == 3)
      assert(r.metrics.map(_._1).toSet == names("per_layer"))
      val prof = r.metrics.collect { case (n, m) if n.startsWith("prof.") && n.endsWith("_frac") => m.value }
      assert(prof.length == StackSampler.Buckets.length)
      if (r.metric("prof.samples").get.value > 0) assert(math.abs(prof.sum - 1.0) < 1e-9)
      assert(r.metric("engine.jobs").get.value > 0)
      assert(r.metric("engine.round_s.p50").get.value > 0)
      // Every job, stage and task span names a parent that exists.
      val ids = r.spans.map(_("id")).toSet
      assert(r.spans.forall(s => s("parent") == 0 || ids(s("parent"))))
      assert(r.spans.exists(_("kind") == "task"))
    }
  }

  test("phases of an AC decomposition follow its engine runs") {
    val r = run(Workloads.figure2(Algo.AC), trace = true)
    for (p <- Seq("adjacency", "ac_phase1", "kmax_exchange", "ac_phase2", "ac_phase3"))
      assert(r.metric(s"phase.${p}_s").get.value > 0, p)
    assert(r.metric("phase.sc_main_s").get.value == 0)
  }

  // ------------------------------------------------------------------ gate

  private lazy val fig2Peel: Peeling.Result =
    Peeling.decompose(LocalGraph.fromEdges(ExampleGraphs.figure2Edges)).get

  private def fig2Outcome(result: Map[Long, Vector[Any]]) =
    Outcome(rounds = 10, messages = 100, Vector(3, 4, 3), 34, 0, 0, 0, result)

  test("the gate passes the Peeling result itself and fails a corrupted one") {
    val ref = Algo.AC.reference(fig2Peel)
    assert(Gate.check(fig2Outcome(ref), ref, None).isEmpty)
    val corrupt = ref.updated(7L, Vector(2, 2))
    assert(Gate.check(fig2Outcome(corrupt), ref, None).exists(_.contains("1 wrong")))
    assert(Gate.check(fig2Outcome(ref - 7L), ref, None).exists(_.contains("1 missing")))
    assert(Gate.check(fig2Outcome(ref), ref, Some((10, 101L))).exists(_.contains("pinned")))
  }

  /** AC with lmax(0, v) of one vertex raised by one after the run. */
  private object CorruptAC extends Algo {
    val name = "AC"
    val engineRuns = Algo.AC.engineRuns
    val phases = Algo.AC.phases
    def decompose(g: DirectedGraph, mode: EngineMode): Outcome = {
      val out = Algo.AC.decompose(g, mode)
      val (v, a) = out.result.minBy(_._1)
      out.copy(result = out.result.updated(v, a.updated(0, a.head.asInstanceOf[Int] + 1)))
    }
    def reference(peel: Peeling.Result): Map[Long, Vector[Any]] = Algo.AC.reference(peel)
  }

  test("a corrupted decomposition counts as failed and is not dropped") {
    val r = run(Workloads.figure2(Algo.AC).copy(algo = CorruptAC), trace = false)
    assert(!r.correct)
    assert(r.failed == r.attempted && r.attempted >= 1)
    assert(r.metric("passed_frac").get.value == 0.0)
    assert(r.failures.head.contains("wrong"))
  }

  // --------------------------------------------------------------- sampler

  private def stack(classes: String*): Array[StackTraceElement] =
    classes.map(c => new StackTraceElement(c, "f", null, -1)).toArray

  private def bucket(s: Array[StackTraceElement]): String = StackSampler.Buckets(StackSampler.classify(s))

  test("SizeEstimator samples are charged to the owner of the size-tracking collection") {
    val estimator = Seq("org.apache.spark.util.SizeEstimator$", "org.apache.spark.util.SizeEstimator$",
      "org.apache.spark.util.collection.SizeTracker", "org.apache.spark.util.collection.SizeTracker")
    val persist = stack(estimator ++ Seq("org.apache.spark.util.collection.SizeTrackingVector",
      "org.apache.spark.storage.memory.DeserializedValuesHolder", "org.apache.spark.storage.memory.MemoryStore",
      "org.apache.spark.storage.BlockManager", "org.apache.spark.rdd.RDD", "repro.engine.SuperstepEngine$"): _*)
    val cogroup = stack(estimator ++ Seq("org.apache.spark.util.collection.SizeTrackingAppendOnlyMap",
      "org.apache.spark.util.collection.ExternalAppendOnlyMap", "org.apache.spark.rdd.CoGroupedRDD",
      "org.apache.spark.storage.memory.MemoryStore"): _*)
    val sort = stack(estimator ++ Seq("org.apache.spark.util.collection.SizeTrackingAppendOnlyMap",
      "org.apache.spark.util.collection.ExternalSorter", "org.apache.spark.shuffle.sort.SortShuffleWriter"): _*)
    assert(bucket(persist) == "size_est_memstore")
    assert(bucket(cogroup) == "size_est_cogroup")
    assert(bucket(sort) == "size_est_cogroup")
    assert(bucket(stack(estimator: _*)) == "other")
  }

  test("other samples go to the innermost frame's bucket") {
    assert(bucket(stack("java.util.Arrays", "repro.core.HIndex$", "repro.engine.SuperstepEngine$")) == "vertex_compute")
    assert(bucket(stack("repro.engine.SuperstepEngine$", "repro.core.AnchoredCoreness$")) == "engine")
    assert(bucket(stack("java.io.ObjectOutputStream", "repro.core.HIndex$")) == "serde")
    assert(bucket(stack("org.apache.spark.shuffle.sort.SortShuffleWriter", "repro.engine.X")) == "shuffle")
    assert(bucket(stack("java.lang.Thread")) == "other")
  }

  test("the benchmark's workloads are those of BENCHMARK.json and others fail loudly") {
    assert(Workloads.names.toSet == names("workloads"))
    Workloads.names.foreach(n => assert(Workloads(n).name == n))
    assert(intercept[RuntimeException](Workloads("nope")).getMessage.contains("unknown workload"))
    assert(SparkSession.getActiveSession.isEmpty)
  }
}
