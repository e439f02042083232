package repro.core

import repro.{SparkSpec, TestData}

class OutliersClusterSpec extends SparkSpec {

  private def unit(pts: Array[Array[Double]]): Array[WeightedPoint] =
    pts.map(WeightedPoint(_, 1L))

  test("returns at most k centers") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(40, 3, s))
      val res = OutliersCluster.run(t, 4, 1.0, 0.1)
      assert(res.centers.length <= 4)
    }
  }

  test("terminates with fewer than k centers when everything is covered") {
    val t = unit(TestData.uniform(30, 2, 1L, box = 1.0))
    val res = OutliersCluster.run(t, 10, 100.0, 0.0)
    assert(res.uncovered.isEmpty && res.uncoveredWeight == 0L)
    assert(res.centers.length < 10)
  }

  test("final uncovered points are farther than (3+4eps)r from every center") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(50, 3, s))
      val r = 1.5; val eps = 0.2
      val res = OutliersCluster.run(t, 3, r, eps)
      val lim = (3 + 4 * eps) * r
      res.uncovered.foreach { u =>
        assert(Points.distToSet(u.vec, res.centers) > lim - 1e-9)
      }
    }
  }

  test("covered points are within (3+4eps)r of some center") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(50, 3, s)
      val t = unit(pts)
      val r = 2.0; val eps = 0.1
      val res = OutliersCluster.run(t, 3, r, eps)
      val uncSet = res.uncovered.map(_.vec.toSeq).toSet
      val lim = (3 + 4 * eps) * r
      pts.filterNot(p => uncSet(p.toSeq)).foreach { p =>
        assert(Points.distToSet(p, res.centers) <= lim + 1e-9)
      }
    }
  }

  test("uncoveredWeight equals the sum of uncovered weights") {
    val t = TestData.uniform(30, 2, 3L).zipWithIndex.map { case (v, i) => WeightedPoint(v, i + 1L) }
    val res = OutliersCluster.run(t, 2, 0.5, 0.0)
    assert(res.uncoveredWeight == res.uncovered.map(_.weight).sum)
  }

  test("Lemma 5 shape: r >= r*_{k,z} implies uncovered weight <= z (unit weights, full set)") {
    TestData.forSeeds(15) { s =>
      val pts = TestData.uniform(12, 2, s)
      val k = 2; val z = 2
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      for (eps <- Seq(0.0, 0.1, 0.5)) {
        val res = OutliersCluster.run(unit(pts), k, rStar + 1e-9, eps)
        assert(res.uncoveredWeight <= z, s"seed=$s eps=$eps")
      }
    }
  }

  test("greedy picks the max-weight ball first") {
    // Heavy point far away vs a light dense group: with tiny r the first
    // chosen center must cover the heaviest single ball.
    val t = Array(
      WeightedPoint(Array(0.0), 100L),
      WeightedPoint(Array(50.0), 1L),
      WeightedPoint(Array(51.0), 1L),
    )
    val res = OutliersCluster.run(t, 1, 0.1, 0.0)
    assert(res.centers.head.head == 0.0)
  }

  test("second center picks the next best ball among uncovered") {
    val t = Array(
      WeightedPoint(Array(0.0), 10L),
      WeightedPoint(Array(100.0), 5L),
      WeightedPoint(Array(200.0), 1L),
    )
    val res = OutliersCluster.run(t, 2, 1.0, 0.0)
    assert(res.centers.map(_.head).toSet == Set(0.0, 100.0))
    assert(res.uncoveredWeight == 1L)
  }

  test("weighted selection differs from unweighted when weights dominate") {
    val dense = (0 until 5).map(i => WeightedPoint(Array(i * 0.1), 1L))
    val heavy = WeightedPoint(Array(100.0), 50L)
    val res = OutliersCluster.run((dense :+ heavy).toArray, 1, 1.0, 0.0)
    assert(res.centers.head.head == 100.0) // weight 50 beats 5 unit points
  }

  test("r = 0 covers only co-located points") {
    val t = Array(
      WeightedPoint(Array(0.0), 1L), WeightedPoint(Array(0.0), 2L),
      WeightedPoint(Array(5.0), 1L))
    val res = OutliersCluster.run(t, 1, 0.0, 0.0)
    assert(res.uncoveredWeight == 1L)
  }

  test("rejects negative radius and eps") {
    val t = unit(TestData.uniform(5, 2, 1L))
    intercept[IllegalArgumentException](OutliersCluster.run(t, 1, -1.0, 0.0))
    intercept[IllegalArgumentException](OutliersCluster.run(t, 1, 1.0, -0.5))
  }

  test("lazy-greedy selection matches a naive argmax reference implementation") {
    // Reference: recompute every candidate's ball weight each iteration.
    def naive(t: Array[WeightedPoint], k: Int, r: Double, eps: Double): Seq[Seq[Double]] = {
      val innerSq = math.pow((1 + 2 * eps) * r, 2)
      val outerSq = math.pow((3 + 4 * eps) * r, 2)
      var unc = t.toSeq
      val centers = scala.collection.mutable.ArrayBuffer[Array[Double]]()
      while (centers.length < k && unc.nonEmpty) {
        val best = t.minBy { c =>
          (-unc.filter(u => Points.sqDist(c.vec, u.vec) <= innerSq).map(_.weight).sum,
           t.indexOf(c))
        }
        centers += best.vec
        unc = unc.filter(u => Points.sqDist(best.vec, u.vec) > outerSq)
      }
      centers.map(_.toSeq).toSeq
    }
    TestData.forSeeds(10) { s =>
      val t = TestData.uniform(25, 2, s).zipWithIndex.map { case (v, i) =>
        WeightedPoint(v, (i % 4) + 1L)
      }
      val ref = naive(t, 3, 1.2, 0.15)
      val mine = OutliersCluster.run(t, 3, 1.2, 0.15).centers.map(_.toSeq).toSeq
      assert(mine == ref, s"seed=$s")
      val index = Neighbours.build(t.map(_.vec), Double.PositiveInfinity, Int.MaxValue)
      val viaIndex = OutliersCluster.run(t, 3, 1.2, 0.15, index).centers.map(_.toSeq).toSeq
      assert(viaIndex == ref, s"seed=$s (index)")
    }
  }

  /** Weighted points with duplicated positions and tied weights. */
  private def weightedWithDuplicates(s: Long): Array[WeightedPoint] = {
    val base = TestData.uniform(30, 2, s)
    (base ++ base.take(8) ++ base.take(3)).zipWithIndex.map { case (v, i) =>
      WeightedPoint(v.clone(), (i % 3) + 1L)
    }
  }

  private def sameResult(a: OutliersCluster.Result, b: OutliersCluster.Result): Boolean =
    a.centers.map(_.toSeq).toSeq == b.centers.map(_.toSeq).toSeq &&
      a.uncovered.map(u => (u.vec.toSeq, u.weight)).toSeq == b.uncovered.map(u => (u.vec.toSeq, u.weight)).toSeq &&
      a.uncoveredWeight == b.uncoveredWeight

  test("index path returns the same Result as the full scan, below, at and above the index radius") {
    TestData.forSeeds(10) { s =>
      val t = weightedWithDuplicates(s)
      val eps = 0.1
      val rIdx = 1.3
      // The selection ball of a probe at rIdx is exactly the index radius.
      val radiusSq = { val d = (1.0 + 2.0 * eps) * rIdx; d * d }
      val index = Neighbours.build(t.map(_.vec), radiusSq, Int.MaxValue)
      assert(index.isDefined)
      for (k <- Seq(1, 3, 6); r <- Seq(0.0, 0.4, 1.0, rIdx, 1.31, 2.5)) {
        val full = OutliersCluster.run(t, k, r, eps)
        val viaIndex = OutliersCluster.run(t, k, r, eps, index)
        assert(sameResult(full, viaIndex), s"seed=$s k=$k r=$r")
      }
    }
  }

  test("rejects mismatched dimensions and non-finite coordinates") {
    val ok = WeightedPoint(Array(0.0, 0.0), 1L)
    for (bad <- Seq(Array(3.0), Array(0.0, Double.NaN), Array(Double.PositiveInfinity, 0.0)))
      intercept[IllegalArgumentException](OutliersCluster.run(Array(ok, WeightedPoint(bad, 1L)), 1, 1.0, 0.0))
  }

  test("uncovered set shrinks monotonically with r") {
    TestData.forSeeds(5) { s =>
      val t = unit(TestData.uniform(40, 2, s))
      val ws = Seq(0.1, 0.5, 1.0, 2.0, 5.0).map(r =>
        OutliersCluster.run(t, 3, r, 0.0).uncoveredWeight)
      // Not strictly guaranteed by theory, but holds overwhelmingly and the
      // radius search relies on it in practice; flag regressions.
      ws.sliding(2).foreach { case Seq(a, b) => assert(b <= a, s"seed=$s $ws") }
    }
  }
}
