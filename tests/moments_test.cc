#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/numeric.h"
#include "core/summary.h"
#include "moments/ams.h"
#include "moments/compressed_sensing.h"
#include "moments/frequent_directions.h"
#include "moments/jl.h"
#include "moments/sparse_jl.h"
#include "moments/tensor_sketch.h"
#include "workload/baselines.h"
#include "workload/generators.h"

namespace gems {
namespace {

static_assert(WeightedItemSummary<AmsSketch>);
static_assert(MergeableSummary<AmsSketch>);
static_assert(SerializableSummary<AmsSketch>);

// --------------------------------------------------------------------- AMS

TEST(AmsTest, F2OfSingleHeavyItem) {
  AmsSketch ams(16, 5, 1);
  ams.Update(7, 1000);
  // F2 = 10^6 exactly (single item: every estimator sees (s*1000)^2).
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), 1e6);
}

TEST(AmsTest, ExtremeWeightsWrapToInt64Min) {
  // Two INT64_MAX updates wrap every counter to +/-2. A third update of
  // INT64_MIN + 2 brings the total weight to 2^63, so each counter wraps
  // to INT64_MIN whatever its sign. The adds must wrap in two's
  // complement, never hit signed-overflow UB.
  AmsSketch ams(16, 5, 1);
  ams.Update(7, INT64_MAX);
  ams.Update(7, INT64_MAX);
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), 4.0);
  ams.Update(7, INT64_MIN + 2);
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), std::ldexp(1.0, 126));
}

TEST(AmsTest, F2AccurateOnZipf) {
  std::vector<double> errors;
  for (int t = 0; t < 10; ++t) {
    AmsSketch ams(64, 5, t);
    ExactFrequencies exact;
    ZipfGenerator zipf(10000, 1.1, t);
    for (int i = 0; i < 50000; ++i) {
      const uint64_t item = zipf.Next();
      ams.Update(item);
      exact.Update(item);
    }
    errors.push_back((ams.EstimateF2() - exact.F2()) / exact.F2());
  }
  // Std error ~ sqrt(2/64) ~ 0.18; the median-of-5-groups tightens it.
  EXPECT_LT(Rms(errors), 0.25);
  EXPECT_LT(std::abs(Mean(errors)), 0.15);
}

TEST(AmsTest, NegativeUpdatesCancel) {
  AmsSketch ams(32, 3, 2);
  ams.Update(5, 100);
  ams.Update(5, -100);
  EXPECT_DOUBLE_EQ(ams.EstimateF2(), 0.0);
}

TEST(AmsTest, InnerProductEstimate) {
  AmsSketch a(128, 5, 3), b(128, 5, 3);
  ExactFrequencies ea, eb;
  // Unshuffled so both streams share the item space [0, 1000).
  ZipfGenerator za(1000, 1.0, 4, /*shuffle=*/false);
  ZipfGenerator zb(1000, 1.0, 5, /*shuffle=*/false);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t x = za.Next(), y = zb.Next();
    a.Update(x);
    ea.Update(x);
    b.Update(y);
    eb.Update(y);
  }
  double truth = 0;
  for (const auto& [item, count] : ea.TopK(1000)) {
    truth += static_cast<double>(count) * eb.Count(item);
  }
  auto estimate = a.InnerProduct(b);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate.value(), truth, 0.35 * truth);
}

TEST(AmsTest, MergeEqualsSingleStream) {
  AmsSketch a(32, 3, 6), b(32, 3, 6), whole(32, 3, 6);
  ZipfGenerator zipf(500, 1.1, 7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t item = zipf.Next();
    whole.Update(item);
    (i % 2 == 0 ? a : b).Update(item);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.EstimateF2(), whole.EstimateF2());
}

TEST(AmsTest, ConfidenceIntervalCoversUsually) {
  int covered = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    AmsSketch ams(128, 5, 100 + t);
    ExactFrequencies exact;
    ZipfGenerator zipf(2000, 1.1, 200 + t);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t item = zipf.Next();
      ams.Update(item);
      exact.Update(item);
    }
    if (ams.F2Estimate(0.95).Covers(exact.F2())) ++covered;
  }
  EXPECT_GE(covered, trials * 8 / 10);
}

TEST(AmsTest, SerializeRoundTrip) {
  AmsSketch ams(16, 3, 8);
  ZipfGenerator zipf(100, 1.0, 9);
  for (int i = 0; i < 1000; ++i) ams.Update(zipf.Next());
  auto r = AmsSketch::Deserialize(ams.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().EstimateF2(), ams.EstimateF2());
}

// --------------------------------------------------------------- Dense JL

TEST(JlTest, PreservesNormsWithinEpsilon) {
  const size_t d = 1000;
  const size_t m = JlTransform::DimensionFor(0.2, 50);
  JlTransform jl(d, m, JlEnsemble::kGaussian, 10);
  Rng rng(11);
  int violations = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(d);
    for (double& x : v) x = rng.NextGaussian();
    const double original = L2Norm(v);
    const double projected = L2Norm(jl.Project(v));
    const double ratio = projected / original;
    if (ratio < 0.8 || ratio > 1.2) ++violations;
  }
  EXPECT_LE(violations, 2);
}

TEST(JlTest, PreservesPairwiseDistances) {
  const size_t d = 500;
  const size_t m = 400;
  JlTransform jl(d, m, JlEnsemble::kRademacher, 12);
  Rng rng(13);
  std::vector<std::vector<double>> points(10);
  std::vector<std::vector<double>> projected(10);
  for (int i = 0; i < 10; ++i) {
    points[i].resize(d);
    for (double& x : points[i]) x = rng.NextGaussian();
    projected[i] = jl.Project(points[i]);
  }
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      const double original = L2Distance(points[i], points[j]);
      const double after = L2Distance(projected[i], projected[j]);
      EXPECT_NEAR(after / original, 1.0, 0.25) << i << "," << j;
    }
  }
}

TEST(JlTest, GaussianAndRademacherBothWork) {
  const size_t d = 200, m = 300;
  Rng rng(14);
  std::vector<double> v(d);
  for (double& x : v) x = rng.NextGaussian();
  const double norm = L2Norm(v);
  for (JlEnsemble ensemble :
       {JlEnsemble::kGaussian, JlEnsemble::kRademacher}) {
    JlTransform jl(d, m, ensemble, 15);
    EXPECT_NEAR(L2Norm(jl.Project(v)) / norm, 1.0, 0.2);
  }
}

TEST(JlTest, DimensionForFormula) {
  // m = 8 ln(n) / eps^2.
  EXPECT_EQ(JlTransform::DimensionFor(0.5, 100),
            static_cast<size_t>(std::ceil(8 * std::log(100.0) / 0.25)));
  EXPECT_GT(JlTransform::DimensionFor(0.1, 100),
            JlTransform::DimensionFor(0.2, 100));
}

TEST(JlTest, ProjectionIsLinear) {
  JlTransform jl(50, 20, JlEnsemble::kGaussian, 16);
  Rng rng(17);
  std::vector<double> a(50), b(50), sum(50);
  for (size_t i = 0; i < 50; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
    sum[i] = a[i] + b[i];
  }
  const auto pa = jl.Project(a);
  const auto pb = jl.Project(b);
  const auto psum = jl.Project(sum);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(psum[i], pa[i] + pb[i], 1e-9);
  }
}

// -------------------------------------------------------------- Sparse JL

TEST(SparseJlTest, PreservesNormsOnAverage) {
  SparseJlTransform sjl(256, 4, 18);
  Rng rng(19);
  std::vector<double> ratios;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> v(500);
    for (double& x : v) x = rng.NextGaussian();
    ratios.push_back(L2Norm(sjl.Project(v)) / L2Norm(v));
  }
  EXPECT_NEAR(Mean(ratios), 1.0, 0.1);
}

TEST(SparseJlTest, SparseAndDenseProjectionAgree) {
  SparseJlTransform sjl(64, 2, 20);
  std::vector<double> dense(100, 0.0);
  dense[3] = 1.5;
  dense[42] = -2.0;
  const std::vector<std::pair<uint64_t, double>> sparse = {{3, 1.5},
                                                           {42, -2.0}};
  EXPECT_EQ(sjl.Project(dense), sjl.ProjectSparse(sparse));
}

TEST(SparseJlTest, MoreBlocksTightenConcentration) {
  Rng rng(21);
  std::vector<double> v(1000);
  for (double& x : v) x = rng.NextGaussian();
  const double norm = L2Norm(v);

  std::vector<double> err1, err4;
  for (int t = 0; t < 30; ++t) {
    SparseJlTransform one_block(64, 1, 100 + t);
    SparseJlTransform four_blocks(64, 4, 200 + t);
    err1.push_back(std::abs(L2Norm(one_block.Project(v)) / norm - 1.0));
    err4.push_back(std::abs(L2Norm(four_blocks.Project(v)) / norm - 1.0));
  }
  EXPECT_LT(Mean(err4), Mean(err1));
}

TEST(SparseJlTest, OutputDimension) {
  SparseJlTransform sjl(128, 3, 22);
  EXPECT_EQ(sjl.output_dim(), 384u);
  EXPECT_EQ(sjl.Project(std::vector<double>(10, 1.0)).size(), 384u);
}

// ---------------------------------------------------- Compressed sensing

TEST(CompressedSensingTest, ExactRecoveryWithEnoughMeasurements) {
  const size_t d = 256, s = 5;
  const size_t m = 80;  // ~ 4 s log(d/s), comfortably enough.
  SensingMatrix matrix(m, d, 1);
  Rng rng(2);
  std::vector<double> signal(d, 0.0);
  for (size_t i = 0; i < s; ++i) {
    signal[rng.NextBounded(d)] = rng.NextGaussian() * 3 + 1;
  }
  const auto y = matrix.Measure(signal);
  auto result = OrthogonalMatchingPursuit(matrix, y, s);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(result.value().signal[i], signal[i], 1e-6) << "coord " << i;
  }
  EXPECT_LT(result.value().residual_norm, 1e-6);
}

TEST(CompressedSensingTest, FailsGracefullyWithTooFewMeasurements) {
  const size_t d = 256, s = 20;
  SensingMatrix matrix(10, d, 3);  // Far too few measurements.
  Rng rng(4);
  std::vector<double> signal(d, 0.0);
  for (size_t i = 0; i < s; ++i) signal[rng.NextBounded(d)] = 1.0;
  const auto y = matrix.Measure(signal);
  auto result = OrthogonalMatchingPursuit(matrix, y, 10);
  ASSERT_TRUE(result.ok());
  // Recovery is (almost surely) wrong, but bounded and finite.
  double err = 0;
  for (size_t i = 0; i < d; ++i) {
    err += std::abs(result.value().signal[i] - signal[i]);
    EXPECT_TRUE(std::isfinite(result.value().signal[i]));
  }
  EXPECT_GT(err, 1.0);
}

TEST(CompressedSensingTest, PhaseTransitionShape) {
  // Success rate rises from ~0 to ~1 as measurements grow: the classic
  // compressed-sensing phase transition.
  const size_t d = 128, s = 4;
  auto success_rate = [&](size_t m) {
    int successes = 0;
    for (int t = 0; t < 10; ++t) {
      SensingMatrix matrix(m, d, 100 + t);
      Rng rng(200 + t);
      std::vector<double> signal(d, 0.0);
      for (size_t i = 0; i < s; ++i) {
        signal[rng.NextBounded(d)] = 1.0 + rng.NextDouble();
      }
      const auto y = matrix.Measure(signal);
      auto result = OrthogonalMatchingPursuit(matrix, y, s);
      if (!result.ok()) continue;
      double err = 0;
      for (size_t i = 0; i < d; ++i) {
        err += std::abs(result.value().signal[i] - signal[i]);
      }
      if (err < 1e-6) ++successes;
    }
    return successes / 10.0;
  };
  EXPECT_LE(success_rate(6), 0.3);   // Below the transition.
  EXPECT_GE(success_rate(48), 0.9);  // Above it.
}

TEST(CompressedSensingTest, InputValidation) {
  SensingMatrix matrix(16, 64, 5);
  EXPECT_FALSE(
      OrthogonalMatchingPursuit(matrix, std::vector<double>(5), 2).ok());
  EXPECT_FALSE(
      OrthogonalMatchingPursuit(matrix, std::vector<double>(16), 0).ok());
  EXPECT_FALSE(
      OrthogonalMatchingPursuit(matrix, std::vector<double>(16), 17).ok());
}

// ---------------------------------------------------- Frequent Directions

// Builds a random low-rank(ish) row stream: rows = mix of a few principal
// directions plus noise.
std::vector<std::vector<double>> LowRankRows(size_t n, size_t d, size_t rank,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> directions(rank,
                                              std::vector<double>(d));
  for (auto& direction : directions) {
    for (double& x : direction) x = rng.NextGaussian();
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d, 0.0);
    for (size_t r = 0; r < rank; ++r) {
      const double weight = rng.NextGaussian() * (rank - r);  // Decaying.
      for (size_t k = 0; k < d; ++k) row[k] += weight * directions[r][k];
    }
    for (double& x : row) x += 0.1 * rng.NextGaussian();
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(FrequentDirectionsTest, CovarianceErrorWithinGuarantee) {
  const size_t d = 40, l = 16, n = 500;
  FrequentDirections fd(l, d);
  const auto rows = LowRankRows(n, d, 4, 1);
  for (const auto& row : rows) fd.Update(row);

  // Check x^T (A^T A - B^T B) x in [0 - slack, bound] on random probes.
  Rng rng(2);
  const double bound = fd.SquaredFrobenius() / (l / 2.0);
  for (int probe = 0; probe < 50; ++probe) {
    std::vector<double> x(d);
    double norm = 0;
    for (double& v : x) {
      v = rng.NextGaussian();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    for (double& v : x) v /= norm;

    double exact = 0;
    for (const auto& row : rows) {
      double dot = 0;
      for (size_t k = 0; k < d; ++k) dot += row[k] * x[k];
      exact += dot * dot;
    }
    const double sketched = fd.QuadraticForm(x);
    EXPECT_LE(sketched, exact + 1e-6 * exact + 1e-6);  // Underestimate.
    EXPECT_LE(exact - sketched, bound * 1.01);          // FD guarantee.
  }
}

TEST(FrequentDirectionsTest, TrackedErrorBoundIsSound) {
  const size_t d = 30, l = 8;
  FrequentDirections fd(l, d);
  const auto rows = LowRankRows(300, d, 3, 3);
  for (const auto& row : rows) fd.Update(row);
  Rng rng(4);
  for (int probe = 0; probe < 30; ++probe) {
    std::vector<double> x(d);
    double norm = 0;
    for (double& v : x) {
      v = rng.NextGaussian();
      norm += v * v;
    }
    for (double& v : x) v /= std::sqrt(norm);
    double exact = 0;
    for (const auto& row : rows) {
      double dot = 0;
      for (size_t k = 0; k < d; ++k) dot += row[k] * x[k];
      exact += dot * dot;
    }
    EXPECT_LE(exact - fd.QuadraticForm(x),
              fd.CovarianceErrorBound() * 1.01 + 1e-9);
  }
}

TEST(FrequentDirectionsTest, ExactBelowCapacity) {
  const size_t d = 10, l = 8;
  FrequentDirections fd(l, d);
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 7; ++i) {  // Below l: no shrink happens.
    std::vector<double> row(d);
    for (double& v : row) v = rng.NextGaussian();
    rows.push_back(row);
    fd.Update(row);
  }
  std::vector<double> x(d, 1.0 / std::sqrt(static_cast<double>(d)));
  double exact = 0;
  for (const auto& row : rows) {
    double dot = 0;
    for (size_t k = 0; k < d; ++k) dot += row[k] * x[k];
    exact += dot * dot;
  }
  EXPECT_NEAR(fd.QuadraticForm(x), exact, 1e-9);
  EXPECT_DOUBLE_EQ(fd.CovarianceErrorBound(), 0.0);
}

TEST(FrequentDirectionsTest, MergePreservesGuarantee) {
  const size_t d = 24, l = 12;
  FrequentDirections a(l, d), b(l, d);
  const auto rows_a = LowRankRows(200, d, 3, 6);
  const auto rows_b = LowRankRows(200, d, 3, 7);
  for (const auto& row : rows_a) a.Update(row);
  for (const auto& row : rows_b) b.Update(row);
  ASSERT_TRUE(a.Merge(b).ok());

  Rng rng(8);
  const double bound = a.SquaredFrobenius() / (l / 2.0);
  for (int probe = 0; probe < 20; ++probe) {
    std::vector<double> x(d);
    double norm = 0;
    for (double& v : x) {
      v = rng.NextGaussian();
      norm += v * v;
    }
    for (double& v : x) v /= std::sqrt(norm);
    double exact = 0;
    for (const auto* rows : {&rows_a, &rows_b}) {
      for (const auto& row : *rows) {
        double dot = 0;
        for (size_t k = 0; k < d; ++k) dot += row[k] * x[k];
        exact += dot * dot;
      }
    }
    EXPECT_LE(a.QuadraticForm(x), exact * 1.0001 + 1e-6);
    // Merged FD pays at most double the single-stream bound.
    EXPECT_LE(exact - a.QuadraticForm(x), 2.0 * bound);
  }
}

TEST(FrequentDirectionsTest, ShapeMismatchRejected) {
  FrequentDirections a(8, 10), b(8, 12), c(10, 10);
  EXPECT_FALSE(a.Merge(b).ok());
  EXPECT_FALSE(a.Merge(c).ok());
}

// --------------------------------------------------------- Tensor sketch

TEST(TensorSketchTest, ApproximatesPolynomialKernel) {
  const size_t d = 64, m = 512;
  Rng rng(6);
  for (int degree : {2, 3}) {
    TensorSketch ts(m, degree, 7);
    std::vector<double> errors;
    for (int t = 0; t < 30; ++t) {
      std::vector<double> x(d), y(d);
      for (size_t i = 0; i < d; ++i) {
        x[i] = rng.NextGaussian() / std::sqrt(static_cast<double>(d));
        y[i] = rng.NextGaussian() / std::sqrt(static_cast<double>(d));
      }
      double dot = 0;
      for (size_t i = 0; i < d; ++i) dot += x[i] * y[i];
      const double kernel = std::pow(dot, degree);
      const double estimate = TensorSketch::Dot(ts.Sketch(x), ts.Sketch(y));
      errors.push_back(estimate - kernel);
    }
    // Unbiased with modest variance at m = 512; ||x|| ~ 1 so kernel <= 1.
    EXPECT_LT(std::abs(Mean(errors)), 0.05) << "degree " << degree;
    EXPECT_LT(Rms(errors), 0.2) << "degree " << degree;
  }
}

TEST(TensorSketchTest, DegreeOneIsPlainCountSketch) {
  TensorSketch ts(256, 1, 8);
  Rng rng(9);
  std::vector<double> x(32), y(32);
  for (size_t i = 0; i < 32; ++i) {
    x[i] = rng.NextGaussian();
    y[i] = rng.NextGaussian();
  }
  double dot = 0;
  for (size_t i = 0; i < 32; ++i) dot += x[i] * y[i];
  EXPECT_NEAR(TensorSketch::Dot(ts.Sketch(x), ts.Sketch(y)), dot,
              0.35 * std::abs(dot) + 1.5);
}

TEST(TensorSketchTest, SelfKernelIsPositive) {
  TensorSketch ts(256, 2, 10);
  Rng rng(11);
  std::vector<double> x(32);
  for (double& v : x) v = rng.NextGaussian();
  double norm2 = 0;
  for (double v : x) norm2 += v * v;
  // <S(x), S(x)> estimates (x.x)^2 > 0.
  EXPECT_NEAR(TensorSketch::Dot(ts.Sketch(x), ts.Sketch(x)), norm2 * norm2,
              0.5 * norm2 * norm2);
}

TEST(SparseJlTest, LinearInInput) {
  SparseJlTransform sjl(32, 2, 23);
  std::vector<double> v(50, 0.0);
  v[7] = 2.0;
  auto p1 = sjl.Project(v);
  v[7] = 4.0;
  auto p2 = sjl.Project(v);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(p2[i], 2.0 * p1[i], 1e-12);
  }
}

}  // namespace
}  // namespace gems
