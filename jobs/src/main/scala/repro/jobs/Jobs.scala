package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for spark-submit entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .appName(name)
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
}

/** Table I: dataset overview. `spark-submit --class repro.jobs.TableIJob`. */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("tableI")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    println(TableI.render(TableI.compute(spark, sf)))
    spark.stop()
  }
}

/** Table II: best/worst random speech ranking for ACS visual impairment. */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("tableII")
    val sf = args.headOption.map(_.toDouble).getOrElse(0.1)
    println(TableII.render(TableII.compute(spark, sf)))
    spark.stop()
  }
}

/** Table III: voice-request classification per deployment (no Spark data). */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    println(TableIII.render(TableIII.compute()))
  }
}

/** Fig. 3 analog: algorithm comparison E / G-B / G-P / G-O. */
object Fig3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig3")
    println(Fig3.render(Fig3.run(spark, Fig3.scenarios())))
    spark.stop()
  }
}

/** Fig. 4 analog: scaling in speech length and fact dimensions. */
object Fig4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig4")
    println(Fig4.render(Fig4.run(spark)))
    spark.stop()
  }
}

/** Fig. 10 analog: pre-processing amortization vs sampling baseline. */
object Fig10Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig10")
    println(Fig10.render(Fig10.run(spark)))
    spark.stop()
  }
}

/** Fig. 11 analog: speech quality vs baseline and random picks. */
object Fig11Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("fig11")
    println(Fig11.render(Fig11.run(spark)))
    spark.stop()
  }
}
