package org.apache.spark

/** The one package-private hook the benchmark needs: waiting until every
  * listener event posted so far has been delivered, so that the spans of a
  * decomposition are complete before they are read.
  */
object PerfbenchAccess {
  def waitForListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
