package org.apache.spark

/** Spark keeps the listener-bus drain package-private; the benchmark needs it
  * to read a build's task metrics only after every event of the build arrived.
  */
object PerfbenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
