// Unit tests for src/common: vectors, matrices, linear solves, RNG, Status,
// string utilities.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/vec.h"

namespace isrl {
namespace {

// ---------- Vec ----------

TEST(VecTest, ConstructionAndAccess) {
  Vec zero(3);
  EXPECT_EQ(zero.dim(), 3u);
  EXPECT_EQ(zero[0], 0.0);
  Vec filled(4, 2.5);
  EXPECT_EQ(filled[3], 2.5);
  Vec lit{1.0, 2.0, 3.0};
  EXPECT_EQ(lit[1], 2.0);
  lit[1] = 7.0;
  EXPECT_EQ(lit[1], 7.0);
}

TEST(VecTest, Arithmetic) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{4.0, 5.0, 6.0};
  Vec sum = a + b;
  EXPECT_TRUE(ApproxEqual(sum, Vec{5.0, 7.0, 9.0}));
  Vec diff = b - a;
  EXPECT_TRUE(ApproxEqual(diff, Vec{3.0, 3.0, 3.0}));
  EXPECT_TRUE(ApproxEqual(a * 2.0, Vec{2.0, 4.0, 6.0}));
  EXPECT_TRUE(ApproxEqual(b / 2.0, Vec{2.0, 2.5, 3.0}));
}

TEST(VecTest, DotAndNorms) {
  Vec a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.NormSquared(), 25.0);
  Vec b{1.0, -1.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), -1.0);
  EXPECT_DOUBLE_EQ(Distance(a, Vec{0.0, 0.0}), 5.0);
}

TEST(VecTest, Reductions) {
  Vec a{1.0, -2.0, 5.0, 3.0};
  EXPECT_DOUBLE_EQ(a.Sum(), 7.0);
  EXPECT_EQ(a.ArgMax(), 2u);
}

TEST(VecTest, ArgMaxFirstOnTies) {
  Vec a{3.0, 5.0, 5.0};
  EXPECT_EQ(a.ArgMax(), 1u);
}

TEST(VecTest, AppendAndPushBack) {
  Vec a{1.0, 2.0};
  Vec b{3.0};
  a.Append(b);
  EXPECT_TRUE(ApproxEqual(a, Vec{1.0, 2.0, 3.0}));
  a.PushBack(4.0);
  EXPECT_EQ(a.dim(), 4u);
}

TEST(VecTest, ApproxEqualRespectsTolerance) {
  Vec a{1.0, 2.0};
  Vec b{1.0, 2.0 + 1e-10};
  EXPECT_TRUE(ApproxEqual(a, b, 1e-9));
  EXPECT_FALSE(ApproxEqual(a, b, 1e-11));
  EXPECT_FALSE(ApproxEqual(a, Vec{1.0, 2.0, 3.0}));
}

TEST(VecDeathTest, DimensionMismatchAborts) {
  Vec a{1.0, 2.0};
  Vec b{1.0};
  EXPECT_DEATH(Dot(a, b), "ISRL_CHECK");
  EXPECT_DEATH(a += b, "ISRL_CHECK");
}

// ---------- Matrix ----------

TEST(MatrixTest, FromRowsStacksAndRowVecExtracts) {
  std::vector<Vec> rows = {Vec{1.0, 2.0}, Vec{3.0, 4.0}, Vec{5.0, 6.0}};
  Matrix m = Matrix::FromRows(rows);
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(ApproxEqual(m.RowVec(r), rows[r], 0.0));
  }
}

TEST(GemmTest, TransposedBMatchesNaive) {
  // Shapes straddling the 32×32 tile boundary exercise full tiles, the
  // 4-wide register-tile remainder, and partial edge tiles.
  Rng rng(21);
  for (size_t m : {1u, 3u, 33u}) {
    for (size_t n : {1u, 5u, 37u}) {
      const size_t k = 1 + static_cast<size_t>(rng.UniformInt(1, 40));
      Matrix a(m, k), b(n, k);
      for (double& v : a.data()) v = rng.Uniform(-1.0, 1.0);
      for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
      Matrix c(m, n);
      GemmTransposedB(m, n, k, a.data().data(), b.data().data(), nullptr,
                      c.data().data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          double want = 0.0;
          for (size_t t = 0; t < k; ++t) want += a(i, t) * b(j, t);
          EXPECT_NEAR(c(i, j), want, 1e-12);
        }
      }
    }
  }
}

TEST(GemmTest, BiasIsAddedPerColumn) {
  Matrix a(2, 3), b(4, 3);
  Rng rng(22);
  for (double& v : a.data()) v = rng.Uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
  Vec bias{0.5, -1.0, 2.0, 0.0};
  Matrix c(2, 4);
  GemmTransposedB(2, 4, 3, a.data().data(), b.data().data(), bias.raw(),
                  c.data().data());
  Matrix no_bias(2, 4);
  GemmTransposedB(2, 4, 3, a.data().data(), b.data().data(), nullptr,
                  no_bias.data().data());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), no_bias(i, j) + bias[j], 1e-12);
    }
  }
}

TEST(GemmTest, SingleRowIsBitIdenticalToDotProduct) {
  // The scalar NN path is the m=1 case of the batched kernel; the sequential
  // k-accumulation makes them exactly equal, not just close.
  Rng rng(23);
  const size_t k = 70;  // crosses the 4-wide inner tile several times
  Matrix a(1, k), b(6, k);
  for (double& v : a.data()) v = rng.Uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix c(1, 6);
  GemmTransposedB(1, 6, k, a.data().data(), b.data().data(), nullptr,
                  c.data().data());
  for (size_t j = 0; j < 6; ++j) {
    double want = 0.0;
    for (size_t t = 0; t < k; ++t) want += a(0, t) * b(j, t);
    EXPECT_EQ(c(0, j), want);
  }
}

TEST(LinearSolveTest, SolvesDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  Vec x;
  ASSERT_TRUE(SolveLinearSystem(a, Vec{2.0, 8.0}, &x));
  EXPECT_TRUE(ApproxEqual(x, Vec{1.0, 2.0}, 1e-12));
}

TEST(LinearSolveTest, SolvesGeneral3x3) {
  Matrix a(3, 3);
  double vals[3][3] = {{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) a(r, c) = vals[r][c];
  Vec x;
  ASSERT_TRUE(SolveLinearSystem(a, Vec{8.0, -11.0, -3.0}, &x));
  EXPECT_TRUE(ApproxEqual(x, Vec{2.0, 3.0, -1.0}, 1e-9));
}

TEST(LinearSolveTest, RequiresPivoting) {
  // Zero pivot in the (0,0) slot forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  Vec x;
  ASSERT_TRUE(SolveLinearSystem(a, Vec{3.0, 5.0}, &x));
  EXPECT_TRUE(ApproxEqual(x, Vec{5.0, 3.0}, 1e-12));
}

TEST(LinearSolveTest, DetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  Vec x;
  EXPECT_FALSE(SolveLinearSystem(a, Vec{1.0, 2.0}, &x));
}

TEST(LinearSolveTest, RandomRoundTrip) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(1, 6));
    Matrix a(n, n);
    Vec truth(n);
    for (size_t r = 0; r < n; ++r) {
      truth[r] = rng.Uniform(-2.0, 2.0);
      for (size_t c = 0; c < n; ++c) a(r, c) = rng.Uniform(-1.0, 1.0);
      a(r, r) += 3.0;  // diagonally dominant: well-conditioned
    }
    Vec b(n);
    for (size_t r = 0; r < n; ++r) b[r] = Dot(a.RowVec(r), truth);
    Vec x;
    ASSERT_TRUE(SolveLinearSystem(a, b, &x));
    EXPECT_TRUE(ApproxEqual(x, truth, 1e-8)) << "n=" << n;
  }
}

// ---------- Rng ----------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(RngTest, SimplexUniformOnSimplex) {
  Rng rng(3);
  for (size_t d = 2; d <= 10; ++d) {
    Vec u = rng.SimplexUniform(d);
    EXPECT_EQ(u.dim(), d);
    EXPECT_NEAR(u.Sum(), 1.0, 1e-12);
    for (size_t i = 0; i < d; ++i) EXPECT_GE(u[i], 0.0);
  }
}

TEST(RngTest, SimplexUniformCoversInterior) {
  // Mean of many simplex-uniform draws approaches the barycentre.
  Rng rng(4);
  const size_t d = 3;
  Vec mean(d);
  const int n = 20000;
  for (int i = 0; i < n; ++i) mean += rng.SimplexUniform(d);
  mean /= static_cast<double>(n);
  for (size_t i = 0; i < d; ++i) EXPECT_NEAR(mean[i], 1.0 / 3.0, 0.01);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = rng.SampleIndices(20, 7);
    ASSERT_EQ(idx.size(), 7u);
    std::set<size_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 7u);
    for (size_t i : idx) EXPECT_LT(i, 20u);
  }
}

TEST(RngTest, SampleIndicesFullSet) {
  Rng rng(6);
  auto idx = rng.SampleIndices(5, 5);
  std::set<size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------- Status ----------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Infeasible("no feasible point");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.ToString(), "Infeasible: no feasible point");
}

TEST(StatusTest, AllCodesNamed) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnbounded), "Unbounded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_DEATH(r.value(), "ISRL_CHECK");
}

// ---------- Strings ----------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto fields = Split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringsTest, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -1e-3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, ParseUint64) {
  uint64_t v = 1;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64(" 42 ", &v));  // surrounding whitespace is fine
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, UINT64_MAX);
  // Everything atoll silently mangles must be rejected outright.
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("   ", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
  EXPECT_FALSE(ParseUint64("+7", &v));
  EXPECT_FALSE(ParseUint64("12abc", &v));
  EXPECT_FALSE(ParseUint64("abc", &v));
  EXPECT_FALSE(ParseUint64("1e9", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // UINT64_MAX + 1
  EXPECT_FALSE(ParseUint64("99999999999999999999", &v));
}

TEST(StringsTest, Format) {
  EXPECT_EQ(Format("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(Format("%.2f", 1.239), "1.24");
}

// ---------- Stopwatch ----------

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.Restart();
  EXPECT_LE(w.ElapsedSeconds(), t2 + 1.0);
}

}  // namespace
}  // namespace isrl
