package repro.bench

import org.apache.spark.sql.SparkSession

/** The one SparkSession builder: the spark-submit entrypoints in jobs/, the
  * test and bench suites (`SparkSpec`) and the benchmark all start here.
  */
object JobSession {
  def create(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
