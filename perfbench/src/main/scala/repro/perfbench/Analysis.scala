package repro.perfbench

import repro.perfbench.SpanListener.{JobRec, Spans}

/** Per-layer numbers derived from the Spark spans of one decomposition. */
object Analysis {

  private val EngineRunFrame = "repro.engine.SuperstepEngine$.run("

  /** The frame that called `SuperstepEngine.run`, if the job ran inside it.
    * Consecutive jobs with the same caller frame belong to one engine run.
    */
  def engineCaller(job: JobRec): Option[String] = {
    val frames = job.stack.split('\n')
    val i = frames.lastIndexWhere(_.contains(EngineRunFrame))
    if (i >= 0 && i + 1 < frames.length) Some(frames(i + 1).trim) else None
  }

  /** Jobs grouped into the algorithm's phases. The k-th run of consecutive
    * engine jobs is `algo.engineRuns(k)`; jobs outside the engine go to the
    * phase listed before the next engine run in `algo.phases`, or to the
    * last phase once every engine run is over.
    */
  def phases(algo: Algo, jobs: Vector[JobRec]): Vector[(String, Vector[JobRec])] = {
    val out = Vector.newBuilder[(String, JobRec)]
    var run = -1
    var lastCaller: Option[String] = None
    for (j <- jobs) {
      val caller = engineCaller(j)
      if (caller.isDefined && caller != lastCaller) run += 1
      lastCaller = caller
      val name =
        if (caller.isDefined) algo.engineRuns.lift(run).getOrElse(s"engine_run${run + 1}")
        else if (run + 1 < algo.engineRuns.length) {
          val next = algo.phases.indexOf(algo.engineRuns(run + 1))
          algo.phases(math.max(0, next - 1))
        } else algo.phases.last
      out += name -> j
    }
    val grouped = out.result()
    grouped.map(_._1).distinct.map(n => n -> grouped.collect { case (`n`, j) => j })
  }

  /** `AnchoredCoreness.run` builds its kmax exchange lazily, so the
    * exchange's stages run inside Phase II's first job, ahead of the stages
    * of the engine. They are the stages whose RDD that method created itself.
    */
  private val ExchangeCreator = "repro.core.AnchoredCoreness$.run("

  /** Wall seconds of each phase, from its first job's start to its last
    * job's end. For AC, Phase II starts only when the last kmax exchange
    * stage of its first job ends; `kmax_exchange` runs up to that point.
    */
  def phaseSeconds(algo: Algo, spans: Spans): Map[String, Double] = {
    val grouped = phases(algo, spans.jobs)
    val ms = grouped.map { case (name, js) => name -> (js.map(_.start).min, js.map(_.end).max) }.toMap
    val exchangeEnd = grouped.collectFirst { case ("ac_phase2", js) => js.head }.flatMap { first =>
      val ends = spans.stages.filter(st => first.stageIds.contains(st.id) && st.creator.startsWith(ExchangeCreator))
      ends.map(_.end).maxOption
    }
    val split = exchangeEnd.fold(ms) { cut =>
      val (start2, end2) = ms("ac_phase2")
      ms ++ Map("kmax_exchange" -> (ms.get("kmax_exchange").fold(start2)(_._1), cut), "ac_phase2" -> (cut, end2))
    }
    split.map { case (name, (start, end)) => name -> (end - start) / 1e3 }
  }

  /** The per-superstep jobs of each engine run: the action whose call site
    * occurs once per round (`rounds(k)` times in the k-th run), or the most
    * frequent one if none matches exactly.
    */
  def superstepJobs(algo: Algo, jobs: Vector[JobRec], rounds: Vector[Int]): Vector[JobRec] =
    phases(algo, jobs).flatMap { case (name, js) =>
      val k = algo.engineRuns.indexOf(name)
      if (k < 0) Vector.empty
      else {
        val bySite = js.groupBy(_.callSite)
        val site = bySite.find(_._2.length == rounds.lift(k).getOrElse(-1))
          .getOrElse(bySite.maxBy(_._2.length))._1
        bySite(site)
      }
    }

  /** Median over superstep jobs of (max ÷ mean task run time) in the job's
    * last stage, whose tasks are the blocks (partitions) of the round.
    */
  def blockSkew(spans: Spans, steps: Vector[JobRec]): Double = {
    val tasksByStage = spans.tasks.groupBy(_.stageId)
    Stats.median(steps.flatMap { j =>
      val ts = tasksByStage.getOrElse(j.stageIds.max, Vector.empty).map(_.runMs.toDouble)
      val mean = if (ts.isEmpty) 0.0 else ts.sum / ts.length
      if (mean > 0) Some(ts.max / mean) else None
    })
  }
}
