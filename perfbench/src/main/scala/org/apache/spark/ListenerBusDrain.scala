package org.apache.spark

/** Blocks until Spark's listener bus has delivered every event posted so
  * far, so a listener's counts are complete when read. It sits in Spark's
  * package because the bus is package-private.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
