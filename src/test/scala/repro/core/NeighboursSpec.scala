package repro.core

import repro.{SparkSpec, TestData}

class NeighboursSpec extends SparkSpec {

  test("row i holds every j within the radius, i included, sorted by distance") {
    TestData.forSeeds(5) { s =>
      val pts = TestData.uniform(150, 3, s) ++ TestData.uniform(10, 3, s) // duplicates
      val radiusSq = 4.0
      val idx = Neighbours.build(pts, radiusSq, Int.MaxValue).get
      assert(idx.rowStart.length == pts.length + 1 && idx.rowStart.last == idx.nbr.length)
      pts.indices.foreach { i =>
        val row = (idx.rowStart(i) until idx.rowStart(i + 1)).map(p => (idx.sqd(p), idx.nbr(p)))
        val expected = pts.indices.map(j => (Points.sqDist(pts(i), pts(j)), j))
          .filter(_._1 <= radiusSq).sortBy(identity)
        assert(row == expected, s"seed=$s row=$i")
      }
    }
  }

  test("build is deterministic and drops the index once it exceeds the cap") {
    val pts = TestData.uniform(300, 2, 3L)
    val a = Neighbours.build(pts, 1.0, Int.MaxValue).get
    val b = Neighbours.build(pts, 1.0, Int.MaxValue).get
    assert(a.rowStart.sameElements(b.rowStart) && a.nbr.sameElements(b.nbr) && a.sqd.sameElements(b.sqd))
    assert(Neighbours.build(pts, 1.0, a.nbr.length).isDefined)
    assert(Neighbours.build(pts, 1.0, a.nbr.length - 1).isEmpty)
    assert(Neighbours.build(pts, Double.PositiveInfinity, 300 * 300).get.nbr.length == 300 * 300)
  }
}
