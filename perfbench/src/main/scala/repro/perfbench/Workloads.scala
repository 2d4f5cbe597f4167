package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, lit, pmod}

import repro.core.{AnchoredCoreness, Peeling, SkylineCoreness}
import repro.engine.{BlockCentric, DirectedGraph, EngineMetrics, EngineMode, Partitioners, VertexCentric}
import repro.graphgen.{Datasets, ExampleGraphs}

/** What one decomposition produced: the paper's counters and the result
  * collected to the driver, keyed by vertex. An AC result maps v to
  * lmax(k, v) for k = 0..kmax(v); an SC result maps v to its skyline pairs.
  */
final case class Outcome(
    rounds: Int,
    messages: Long,
    /** rounds of each engine run, in the order the algorithm makes them */
    phaseRounds: Vector[Int],
    setupMessages: Long,
    localMessages: Long,
    changed: Long,
    delivered: Long,
    result: Map[Long, Vector[Any]]
)

trait Algo {
  def name: String

  /** Names of the algorithm's `SuperstepEngine.run` calls, in call order. */
  def engineRuns: Vector[String]

  /** Names of the phases a decomposition's wall clock is split into. */
  def phases: Vector[String]

  /** Run one decomposition and collect its result to the driver. */
  def decompose(g: DirectedGraph, mode: EngineMode): Outcome

  /** The `Peeling` result in the shape `decompose` reports. */
  def reference(peel: Peeling.Result): Map[Long, Vector[Any]]

  protected def outcome(phases: Seq[EngineMetrics], setupMessages: Long, result: Map[Long, Vector[Any]]): Outcome =
    Outcome(
      rounds = phases.map(_.rounds).sum,
      messages = phases.map(_.totalMessages).sum + setupMessages,
      phaseRounds = phases.map(_.rounds).toVector,
      setupMessages = setupMessages,
      localMessages = phases.map(_.totalLocalMessages).sum,
      changed = phases.map(_.changedPerRound.sum).sum,
      delivered = phases.map(p => p.totalMessages + p.totalLocalMessages).sum,
      result = result
    )
}

object Algo {
  case object AC extends Algo {
    val name = "AC"
    val engineRuns = Vector("ac_phase1", "ac_phase2", "ac_phase3")
    val phases = Vector("adjacency", "ac_phase1", "kmax_exchange", "ac_phase2", "ac_phase3", "collect")
    def decompose(g: DirectedGraph, mode: EngineMode): Outcome = {
      val r = AnchoredCoreness.run(g, mode)
      val lmax = r.lmax.collect()
      outcome(Seq(r.phase1, r.phase2, r.phase3), r.setupMessages, lmax.iterator.map { case (v, a) => v -> a.toVector }.toMap)
    }
    def reference(peel: Peeling.Result): Map[Long, Vector[Any]] =
      peel.anchored.iterator.map { case (v, a) => v -> a.toVector }.toMap
  }

  case object SC extends Algo {
    val name = "SC"
    val engineRuns = Vector("sc_init_in", "sc_init_out", "sc_main")
    val phases = Vector("adjacency", "sc_init_in", "sc_init_out", "sc_main", "collect")
    def decompose(g: DirectedGraph, mode: EngineMode): Outcome = {
      val r = SkylineCoreness.run(g, mode)
      val sky = r.skyline.collect()
      outcome(Seq(r.initIn, r.initOut, r.main), 0L, sky.iterator.map { case (v, s) => v -> (s: Vector[Any]) }.toMap)
    }
    def reference(peel: Peeling.Result): Map[Long, Vector[Any]] =
      peel.skyline.iterator.map { case (v, s) => v -> (s: Vector[Any]) }.toMap
  }

  /** Every phase name any algorithm reports, in report order. */
  val allPhases: Vector[String] = (AC.phases ++ SC.phases).distinct
}

/** One benchmark workload: a decomposition configuration on one graph.
  *
  * @param scale   share of the full stand-in's vertices and edges
  * @param graph   builds the input graph for a seed
  * @param pinned  rounds and messages every decomposition must report
  */
final case class Workload(
    name: String,
    algo: Algo,
    mode: EngineMode,
    scale: Double,
    defaultSeed: Long,
    graph: (SparkSession, Long) => DirectedGraph,
    pinned: Option[(Int, Long)]
)

object Workloads {

  /** The paper's 8 machines, as in every bench of this repository. */
  val Blocks = 8

  private val vc = VertexCentric(Blocks)
  private val bcHash = BlockCentric(Partitioners.hash(Blocks).assign, Blocks)

  private final case class Def(spec: Datasets.Spec, algo: Algo, mode: EngineMode, scale: Double, pinned: (Int, Long))

  /** Each workload at the largest scale that keeps a run of the benchmark
    * (set-up three times, then one decomposition) within its time budget on
    * 4 cores, with the rounds and messages it must report. Relabelling keeps
    * the counts, so they hold at every seed.
    */
  private val defs: Map[String, Def] = Map(
    "wv-ac-vc" -> Def(Datasets.WV, Algo.AC, vc, 0.25, (38, 62903L)),
    "am-sc-bc" -> Def(Datasets.AM, Algo.SC, bcHash, 0.05, (26, 60071L))
  )

  val names: Vector[String] = Vector("wv-ac-vc", "am-sc-bc")

  /** A stand-in scaled by `f` in vertices and edges, periphery and planted
    * core alike, so average degrees stay those of the full stand-in. A core
    * scaled below its average degree saturates into a complete digraph, which
    * caps kmax and lmax at its size.
    */
  def scaled(spec: Datasets.Spec, f: Double): Datasets.Spec =
    spec.copy(
      nV = math.round(spec.nV * f),
      nE = math.round(spec.nE * f),
      coreV = math.round(spec.coreV * f),
      coreE = math.round(spec.coreE * f)
    )

  /** The workload `name`. Its graph is the scaled stand-in generated with the
    * dataset's own seed and relabelled by the run's seed.
    */
  def apply(name: String): Workload = {
    val d = defs.getOrElse(name, sys.error(s"unknown workload $name"))
    val spec = scaled(d.spec, d.scale)
    Workload(name, d.algo, d.mode, d.scale, spec.seed,
      (spark, seed) => relabel(spec.generate(spark), spec.nV, seed, spec.seed), Some(d.pinned))
  }

  /** Relabel ids in [0, n) by v -> (a v + b) mod m, with m the least
    * multiple of `Blocks` >= n and gcd(a, m) = 1; `a` and `b` are drawn from
    * `seed`, and `identitySeed` keeps the ids. The map is a bijection that
    * permutes the residues mod `Blocks`, so HASH blocks and hash partitions
    * keep their members up to renaming: the decomposition does the same
    * work on other ids, and its rounds and messages must not change.
    */
  def relabel(g: DirectedGraph, n: Long, seed: Long, identitySeed: Long): DirectedGraph =
    if (seed == identitySeed) g
    else {
      val m = (n + Blocks - 1) / Blocks * Blocks
      val rnd = new scala.util.Random(seed)
      val a = Iterator.continually(1L + rnd.nextLong(m - 1)).find(x => BigInt(x).gcd(BigInt(m)) == 1).get
      val b = rnd.nextLong(m)
      def map(c: String) = pmod(col(c) * lit(a) + lit(b), lit(m)) as c
      DirectedGraph.fromEdges(g.edges.select(map("src"), map("dst")))
    }

  /** The paper's Figure-2 graph, for the harness's own tests. */
  def figure2(algo: Algo = Algo.AC): Workload =
    Workload(
      s"figure2-${algo.name.toLowerCase}",
      algo,
      vc,
      1.0,
      0L,
      (spark, _) => DirectedGraph.fromEdgeList(spark, ExampleGraphs.figure2Edges),
      None
    )
}
