package org.apache.spark

/** Spark keeps the listener-bus drain package-private; tests that count a
  * build's scans need every event of the build delivered before they read.
  */
object SparkTestAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
