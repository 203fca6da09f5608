// Unit tests for the data substrate: dataset container, normalisation,
// synthetic generators, skyline, CSV I/O, and the real-like builders.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/real_like.h"
#include "data/skyline.h"
#include "data/synthetic.h"

namespace isrl {
namespace {

// ---------- Dataset ----------

TEST(DatasetTest, AddAndAccess) {
  Dataset d(2);
  d.Add(Vec{0.1, 0.9});
  d.Add(Vec{0.5, 0.5});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_TRUE(ApproxEqual(d.point(1), Vec{0.5, 0.5}));
}

TEST(DatasetTest, FromVectorInfersDim) {
  Dataset d({Vec{1.0, 2.0, 3.0}, Vec{4.0, 5.0, 6.0}});
  EXPECT_EQ(d.dim(), 3u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DatasetDeathTest, DimensionMismatchAborts) {
  Dataset d(2);
  d.Add(Vec{0.1, 0.9});
  EXPECT_DEATH(d.Add(Vec{0.1}), "ISRL_CHECK");
}

TEST(DatasetTest, TopIndexMatchesBruteForce) {
  Rng rng(1);
  Dataset d(3);
  for (int i = 0; i < 50; ++i) {
    d.Add(Vec{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (int trial = 0; trial < 10; ++trial) {
    Vec u = rng.SimplexUniform(3);
    size_t top = d.TopIndex(u);
    for (size_t i = 0; i < d.size(); ++i) {
      EXPECT_GE(Dot(u, d.point(top)), Dot(u, d.point(i)) - 1e-12);
    }
    EXPECT_NEAR(d.TopUtility(u), Dot(u, d.point(top)), 1e-12);
  }
}

// The first-maximum scalar scan, restated: Dataset's blocked top-1 kernel
// must return exactly its indices.
size_t LoopTopIndex(const Dataset& data, const Vec& u) {
  size_t best = 0;
  double best_utility = Dot(u, data.point(0));
  for (size_t i = 1; i < data.size(); ++i) {
    double utility = Dot(u, data.point(i));
    if (utility > best_utility) {
      best_utility = utility;
      best = i;
    }
  }
  return best;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// TopIndices, TopIndex and TopUtility against the restated loop, exactly.
void ExpectMatchesLoop(const Dataset& data, const std::vector<Vec>& utils) {
  const std::vector<size_t> tops = data.TopIndices(utils);
  ASSERT_EQ(tops.size(), utils.size());
  for (size_t i = 0; i < utils.size(); ++i) {
    const size_t want = LoopTopIndex(data, utils[i]);
    EXPECT_EQ(tops[i], want) << "n=" << data.size() << " d=" << data.dim()
                             << " utility " << i;
    EXPECT_EQ(data.TopIndex(utils[i]), want);
    EXPECT_EQ(Bits(data.TopUtility(utils[i])),
              Bits(Dot(utils[i], data.point(want))));
  }
}

// Points on a coarse grid (exact dot products, so distinct points tie
// exactly) or continuous; the first half built by the vector constructor,
// the rest by Add.
Dataset PropertyDataset(size_t n, size_t d, bool grid, Rng& rng) {
  std::vector<Vec> points;
  for (size_t i = 0; i < n; ++i) {
    Vec p(d);
    for (size_t k = 0; k < d; ++k) {
      p[k] = grid ? static_cast<double>(rng.UniformInt(1, 4)) / 4.0
                  : rng.Uniform(0.001, 1.0);
    }
    points.push_back(p);
  }
  const size_t head = std::max<size_t>(1, n / 2);
  Dataset data(std::vector<Vec>(points.begin(), points.begin() + head));
  for (size_t i = head; i < n; ++i) data.Add(points[i]);
  return data;
}

// Simplex-uniform, grid-valued with zeros, unit and zero utilities.
std::vector<Vec> PropertyUtilities(size_t m, size_t d, Rng& rng) {
  std::vector<Vec> utils;
  for (size_t i = 0; i < m; ++i) {
    Vec u(d);
    switch (i % 4) {
      case 0:
        u = rng.SimplexUniform(d);
        break;
      case 1:
        for (size_t k = 0; k < d; ++k) {
          u[k] = static_cast<double>(rng.UniformInt(0, 8)) / 8.0;
        }
        break;
      case 2:
        u[i % d] = 1.0;
        break;
      default:
        break;  // the zero utility: every point scores 0
    }
    utils.push_back(u);
  }
  return utils;
}

TEST(DatasetTest, TopIndicesEqualTheFirstMaximumScan) {
  Rng rng(23);
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 70; ++n) sizes.push_back(n);
  for (size_t n : {97, 143, 250}) sizes.push_back(n);
  for (size_t d : {1, 2, 3, 4, 5, 17, 20, 21}) {
    for (size_t n : sizes) {
      const Dataset data = PropertyDataset(n, d, n % 2 == 0, rng);
      for (size_t m : {1, 65, 130}) {
        ExpectMatchesLoop(data, PropertyUtilities(m, d, rng));
      }
    }
  }
}

TEST(DatasetTest, TopIndicesBreakExactTiesToTheFirstPoint) {
  // The maximum appears at several positions across V4 lanes and blocks of
  // 16; every utility must return the first of them, before or after the
  // copies that tie it.
  Rng rng(29);
  for (size_t d : {3, 20}) {
    for (const std::vector<size_t>& at :
         {std::vector<size_t>{0, 1, 40}, {3, 4, 5}, {15, 16, 47},
          {21, 37, 53}, {47, 48, 63}, {62, 63}}) {
      Dataset data(d);
      for (size_t i = 0; i < 64; ++i) {
        const bool top = std::find(at.begin(), at.end(), i) != at.end();
        Vec p(d);
        for (size_t k = 0; k < d; ++k) p[k] = top ? 1.0 : rng.Uniform(0, 0.9);
        data.Add(p);
      }
      const std::vector<Vec> utils = PropertyUtilities(65, d, rng);
      const std::vector<size_t> tops = data.TopIndices(utils);
      for (size_t i = 0; i < utils.size(); ++i) {
        // A zero utility ties every point and so answers point 0.
        EXPECT_EQ(tops[i], utils[i].Sum() > 0.0 ? at[0] : 0u);
      }
      ExpectMatchesLoop(data, utils);
    }
  }
}

TEST(DatasetTest, TopIndexOfANanUtilityIsZero) {
  // A NaN coordinate makes every score NaN, no score compares, and the
  // answer is point 0 — as the scalar scan's first-maximum rule gives.
  Rng rng(31);
  const Dataset data = PropertyDataset(37, 5, false, rng);
  Vec nan_u = rng.SimplexUniform(5);
  nan_u[2] = std::numeric_limits<double>::quiet_NaN();
  const Vec good = rng.SimplexUniform(5);
  EXPECT_EQ(data.TopIndex(nan_u), 0u);
  EXPECT_EQ(LoopTopIndex(data, nan_u), 0u);
  const std::vector<size_t> tops = data.TopIndices({good, nan_u, good});
  EXPECT_EQ(tops, (std::vector<size_t>{LoopTopIndex(data, good), 0,
                                       LoopTopIndex(data, good)}));
}

TEST(DatasetTest, NormalizedMapsToUnitRange) {
  Dataset d(2);
  d.Add(Vec{10.0, 300.0});
  d.Add(Vec{20.0, 100.0});
  d.Add(Vec{15.0, 200.0});
  Dataset n = d.Normalized();
  for (size_t i = 0; i < n.size(); ++i) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_GT(n.point(i)[c], 0.0);
      EXPECT_LE(n.point(i)[c], 1.0);
    }
  }
  // Max value maps to 1, min to the floor.
  EXPECT_NEAR(n.point(1)[0], 1.0, 1e-12);
  EXPECT_NEAR(n.point(0)[0], 1e-3, 1e-12);
}

TEST(DatasetTest, NormalizedInvertsSmallerIsBetter) {
  Dataset d(2);
  d.Add(Vec{100.0, 1.0});  // cheap       → should become large in dim 0
  d.Add(Vec{900.0, 2.0});  // expensive   → small in dim 0
  Dataset n = d.Normalized({false, true});
  EXPECT_GT(n.point(0)[0], n.point(1)[0]);
  EXPECT_LT(n.point(0)[1], n.point(1)[1]);
}

TEST(DatasetTest, NormalizedPreservesRankingWithinAttribute) {
  Rng rng(2);
  Dataset d(1);
  for (int i = 0; i < 30; ++i) d.Add(Vec{rng.Uniform(-5, 5)});
  Dataset n = d.Normalized();
  for (size_t a = 0; a < d.size(); ++a) {
    for (size_t b = 0; b < d.size(); ++b) {
      if (d.point(a)[0] < d.point(b)[0]) {
        EXPECT_LE(n.point(a)[0], n.point(b)[0]);
      }
    }
  }
}

TEST(DatasetTest, AttributeNames) {
  Dataset d(2);
  d.Add(Vec{1.0, 2.0});
  d.set_attribute_names({"price", "mpg"});
  EXPECT_EQ(d.attribute_names()[1], "mpg");
  Dataset n = d.Normalized();
  EXPECT_EQ(n.attribute_names()[0], "price");
}

// ---------- Dominance / skyline ----------

TEST(SkylineTest, DominatesSemantics) {
  EXPECT_TRUE(Dominates(Vec{0.5, 0.5}, Vec{0.5, 0.4}));
  EXPECT_TRUE(Dominates(Vec{0.6, 0.5}, Vec{0.5, 0.4}));
  EXPECT_FALSE(Dominates(Vec{0.5, 0.5}, Vec{0.5, 0.5}));  // equal: no
  EXPECT_FALSE(Dominates(Vec{0.9, 0.1}, Vec{0.1, 0.9}));  // incomparable
  EXPECT_FALSE(Dominates(Vec{0.4, 0.6}, Vec{0.5, 0.5}));
}

TEST(SkylineTest, HandPickedExample) {
  // Table III of the paper: p1..p5; p4 is dominated by p3 (0.5,0.8) vs
  // (0.7,0.4)? No — incomparable. Actual dominated point: none except p4 by
  // p3? Check: (0.7,0.4) vs others — p3=(0.5,0.8) no, p5=(1,0) no. All five
  // are skyline except p2=(0.3,0.7) dominated by p3=(0.5,0.8).
  Dataset d(2);
  d.Add(Vec{0.0, 1.0});
  d.Add(Vec{0.3, 0.7});
  d.Add(Vec{0.5, 0.8});
  d.Add(Vec{0.7, 0.4});
  d.Add(Vec{1.0, 0.0});
  auto sky = SkylineIndices(d);
  EXPECT_EQ(sky, (std::vector<size_t>{0, 2, 3, 4}));
}

TEST(SkylineTest, MatchesBruteForce) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    size_t dim = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    Dataset d(dim);
    for (int i = 0; i < 120; ++i) {
      Vec p(dim);
      for (size_t c = 0; c < dim; ++c) p[c] = rng.Uniform(0.0, 1.0);
      d.Add(p);
    }
    std::set<size_t> fast;
    for (size_t i : SkylineIndices(d)) fast.insert(i);
    for (size_t i = 0; i < d.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < d.size(); ++j) {
        if (Dominates(d.point(j), d.point(i))) {
          dominated = true;
          break;
        }
      }
      EXPECT_EQ(fast.count(i) > 0, !dominated) << "point " << i;
    }
  }
}

TEST(SkylineTest, SkylinePointsAreTopForSomeUtility) {
  // The reason the paper preprocesses to the skyline: every skyline point of
  // a 2-d dataset can win for some utility vector, every dominated point
  // cannot win for any.
  Rng rng(4);
  Dataset d = GenerateSynthetic(200, 2, Distribution::kAntiCorrelated, rng);
  Dataset sky = SkylineOf(d);
  for (int trial = 0; trial < 50; ++trial) {
    Vec u = rng.SimplexUniform(2);
    EXPECT_NEAR(d.TopUtility(u), sky.TopUtility(u), 1e-12);
  }
}

// ---------- Synthetic generators ----------

class SyntheticProperty
    : public ::testing::TestWithParam<std::tuple<Distribution, size_t>> {};

TEST_P(SyntheticProperty, PointsInDomainAndDeterministic) {
  auto [dist, d] = GetParam();
  Rng rng(5);
  Dataset data = GenerateSynthetic(300, d, dist, rng);
  EXPECT_EQ(data.size(), 300u);
  EXPECT_EQ(data.dim(), d);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t c = 0; c < d; ++c) {
      EXPECT_GT(data.point(i)[c], 0.0);
      EXPECT_LE(data.point(i)[c], 1.0);
    }
  }
  Rng rng2(5);
  Dataset again = GenerateSynthetic(300, d, dist, rng2);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(ApproxEqual(data.point(i), again.point(i), 0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, SyntheticProperty,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAntiCorrelated),
                       ::testing::Values(2, 4, 8, 20)));

TEST(SyntheticTest, AntiCorrelatedHasRichestSkyline) {
  // The defining property of the anti-correlated family.
  Rng rng(6);
  Dataset anti = GenerateSynthetic(2000, 3, Distribution::kAntiCorrelated, rng);
  Dataset corr = GenerateSynthetic(2000, 3, Distribution::kCorrelated, rng);
  Dataset ind = GenerateSynthetic(2000, 3, Distribution::kIndependent, rng);
  size_t s_anti = SkylineIndices(anti).size();
  size_t s_corr = SkylineIndices(corr).size();
  size_t s_ind = SkylineIndices(ind).size();
  EXPECT_GT(s_anti, s_ind);
  EXPECT_GT(s_ind, s_corr);
}

TEST(SyntheticTest, AntiCorrelatedNegativeCorrelation) {
  Rng rng(7);
  Dataset d = GenerateSynthetic(5000, 2, Distribution::kAntiCorrelated, rng);
  double mean0 = 0, mean1 = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    mean0 += d.point(i)[0];
    mean1 += d.point(i)[1];
  }
  mean0 /= d.size();
  mean1 /= d.size();
  double cov = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    cov += (d.point(i)[0] - mean0) * (d.point(i)[1] - mean1);
  }
  EXPECT_LT(cov / d.size(), 0.0);
}

TEST(SyntheticTest, CorrelatedPositiveCorrelation) {
  Rng rng(8);
  Dataset d = GenerateSynthetic(5000, 2, Distribution::kCorrelated, rng);
  double mean0 = 0, mean1 = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    mean0 += d.point(i)[0];
    mean1 += d.point(i)[1];
  }
  mean0 /= d.size();
  mean1 /= d.size();
  double cov = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    cov += (d.point(i)[0] - mean0) * (d.point(i)[1] - mean1);
  }
  EXPECT_GT(cov / d.size(), 0.0);
}

// ---------- CSV ----------

TEST(CsvTest, RoundTrip) {
  Dataset d(3);
  d.set_attribute_names({"a", "b", "c"});
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    d.Add(Vec{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  const std::string path = ::testing::TempDir() + "/isrl_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), d.size());
  EXPECT_EQ(loaded->attribute_names(), d.attribute_names());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_TRUE(ApproxEqual(loaded->point(i), d.point(i), 1e-12));
  }
}

TEST(CsvTest, HeaderlessFile) {
  const std::string path = ::testing::TempDir() + "/isrl_nohdr.csv";
  {
    std::ofstream out(path);
    out << "1,2\n3,4\n";
  }
  Result<Dataset> loaded = ReadCsv(path, /*has_header=*/false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->dim(), 2u);
}

TEST(CsvTest, RejectsRaggedRows) {
  const std::string path = ::testing::TempDir() + "/isrl_ragged.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n3\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST(CsvTest, RejectsNonNumeric) {
  const std::string path = ::testing::TempDir() + "/isrl_nan.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,hello\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST(CsvTest, MissingFileIsIoError) {
  Result<Dataset> r = ReadCsv("/nonexistent/definitely_missing.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ---------- Real-like datasets ----------

TEST(RealLikeTest, CarShapeAndDomain) {
  Rng rng(10);
  Dataset car = MakeCarDataset(rng, 2000);
  EXPECT_EQ(car.size(), 2000u);
  EXPECT_EQ(car.dim(), 3u);
  EXPECT_EQ(car.attribute_names()[0], "price");
  for (size_t i = 0; i < car.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(car.point(i)[c], 0.0);
      EXPECT_LE(car.point(i)[c], 1.0);
    }
  }
}

TEST(RealLikeTest, CarPriceMileageAntiCorrelatedAfterInversion) {
  // After higher-is-better inversion, "cheap" and "low mileage" fight: old
  // cars are cheap (good) with high mileage (bad) — negative correlation
  // between the two normalised columns keeps the skyline rich.
  Rng rng(11);
  Dataset car = MakeCarDataset(rng, 4000);
  double m0 = 0, m1 = 0;
  for (size_t i = 0; i < car.size(); ++i) {
    m0 += car.point(i)[0];
    m1 += car.point(i)[1];
  }
  m0 /= car.size();
  m1 /= car.size();
  double cov = 0;
  for (size_t i = 0; i < car.size(); ++i) {
    cov += (car.point(i)[0] - m0) * (car.point(i)[1] - m1);
  }
  EXPECT_LT(cov / car.size(), 0.0);
  EXPECT_GT(SkylineIndices(car).size(), 10u);
}

TEST(RealLikeTest, PlayerShapeAndSkyline) {
  Rng rng(12);
  Dataset player = MakePlayerDataset(rng, 3000);
  EXPECT_EQ(player.size(), 3000u);
  EXPECT_EQ(player.dim(), kPlayerAttributes);
  for (size_t i = 0; i < player.size(); ++i) {
    for (size_t c = 0; c < player.dim(); ++c) {
      EXPECT_GT(player.point(i)[c], 0.0);
      EXPECT_LE(player.point(i)[c], 1.0);
    }
  }
  // 20-d data: a large fraction of points is Pareto-optimal, like real NBA
  // box-score data.
  EXPECT_GT(SkylineIndices(player).size(), player.size() / 4);
}

TEST(RealLikeTest, DefaultSizesMatchPaper) {
  EXPECT_EQ(kCarRows, 10668u);
  EXPECT_EQ(kPlayerRows, 17386u);
  EXPECT_EQ(kPlayerAttributes, 20u);
}


TEST(DatasetTest, NormalizedConstantAttributeMapsToOne) {
  Dataset d(2);
  d.Add(Vec{5.0, 1.0});
  d.Add(Vec{5.0, 2.0});
  Dataset n = d.Normalized();
  EXPECT_NEAR(n.point(0)[0], 1.0, 1e-12);
  EXPECT_NEAR(n.point(1)[0], 1.0, 1e-12);
}

TEST(DatasetTest, NormalizedFloorIsRespected) {
  Dataset d(1);
  d.Add(Vec{0.0});
  d.Add(Vec{10.0});
  Dataset n = d.Normalized({}, /*floor=*/0.25);
  EXPECT_NEAR(n.point(0)[0], 0.25, 1e-12);
  EXPECT_NEAR(n.point(1)[0], 1.0, 1e-12);
}

TEST(SkylineTest, DuplicatePointsOneSurvives) {
  // Equal points do not dominate each other: both stay on the skyline.
  Dataset d(2);
  d.Add(Vec{0.5, 0.5});
  d.Add(Vec{0.5, 0.5});
  d.Add(Vec{0.4, 0.4});  // dominated by both
  auto sky = SkylineIndices(d);
  EXPECT_EQ(sky, (std::vector<size_t>{0, 1}));
}

TEST(SkylineTest, SinglePointDataset) {
  Dataset d(3);
  d.Add(Vec{0.2, 0.3, 0.5});
  EXPECT_EQ(SkylineIndices(d).size(), 1u);
}

}  // namespace
}  // namespace isrl
