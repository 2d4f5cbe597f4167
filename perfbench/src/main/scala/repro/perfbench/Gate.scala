package repro.perfbench

/** The correctness gate every timed decomposition passes through. The
  * reference comes from the sequential `Peeling` baseline and is computed
  * outside the timed region.
  */
object Gate {

  /** None if `got` passes, else the reason it fails.
    *
    * @param pinned rounds and messages `got` must report
    */
  def check(got: Outcome, reference: Map[Long, Vector[Any]], pinned: Option[(Int, Long)]): Option[String] = {
    val missing = reference.keysIterator.count(v => !got.result.contains(v))
    val extra   = got.result.keysIterator.count(v => !reference.contains(v))
    val wrong   = reference.iterator.filter { case (v, want) => got.result.get(v).exists(_ != want) }.map(_._1).toVector
    if (missing > 0 || extra > 0 || wrong.nonEmpty) {
      val example = wrong.sorted.headOption.map(v => s"; e.g. vertex $v: got ${got.result(v)}, want ${reference(v)}")
      Some(s"${wrong.size} wrong, $missing missing, $extra extra vertices${example.getOrElse("")}")
    } else
      pinned.collect {
        case (r, m) if got.rounds != r || got.messages != m =>
          s"counts ${got.rounds} rounds / ${got.messages} messages, pinned $r / $m"
      }
  }
}
