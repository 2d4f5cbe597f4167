package repro

import org.scalatest.funsuite.AnyFunSuite

class SparkMasterSpec extends AnyFunSuite {
  import SparkSpec.master

  test("SPARK_MASTER wins over SPARK_GRAFT_CPUS") {
    assert(master(Map("SPARK_MASTER" -> "local[2]", "SPARK_GRAFT_CPUS" -> "3")) == "local[2]")
  }

  test("SPARK_GRAFT_CPUS sets the local core count") {
    assert(master(Map("SPARK_GRAFT_CPUS" -> "3")) == "local[3]")
  }

  test("local[*] when neither is set") {
    assert(master(Map.empty) == "local[*]")
    assert(master(Map("SPARK_GRAFT_CPUS" -> "")) == "local[*]")
  }
}
