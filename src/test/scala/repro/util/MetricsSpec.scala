package repro.util

import repro.SparkSpec

/** `Metrics.measure` reads the shuffle bytes of exactly the jobs its action
  * ran, once their `SparkListenerJobEnd` has been delivered.
  */
class MetricsSpec extends SparkSpec {

  private def sc = spark.sparkContext

  test("measure: a shuffle job reports its shuffle bytes and result") {
    val m = Metrics.measure(spark) {
      sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).reduceByKey(_ + _).count()
    }
    assert(m.result == 10)
    assert(m.shuffleWriteBytes > 0)
  }

  test("measure: a job without a shuffle reports none, whatever ran before") {
    sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).groupByKey().count()
    val m = Metrics.measure(spark)(sc.parallelize(1 to 10, 2).count())
    assert(m.result == 10)
    assert(m.shuffleWriteBytes == 0)
  }

  test("measure: an action of several jobs counts the shuffles of all of them") {
    val one = Metrics.measure(spark) {
      sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).reduceByKey(_ + _).count()
    }
    val two = Metrics.measure(spark) {
      sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).reduceByKey(_ + _).count() +
        sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).reduceByKey(_ + _).count()
    }
    assert(two.result == 20)
    assert(two.shuffleWriteBytes == 2 * one.shuffleWriteBytes)
  }
}
