#include "common/status.h"

#include <algorithm>
#include <cfloat>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/text_format.h"
#include "tensor/matrix.h"

namespace gnn4tdl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  std::vector<int> out = std::move(v).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    GNN4TDL_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Int(0, 1000), b.Int(0, 1000));
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMomentsApproximately) {
  Rng rng(2);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, IntInclusiveBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngTest, BernoulliRate) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i)
    counts[rng.Categorical(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(6);
  std::vector<size_t> perm = rng.Permutation(50);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t v : sample) EXPECT_LT(v, 20u);
}

TEST(CheckDeathTest, ChecksAbortOnViolation) {
  EXPECT_DEATH(GNN4TDL_CHECK(false), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(GNN4TDL_CHECK_EQ(1, 2), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(GNN4TDL_CHECK_MSG(false, "custom context"), "custom context");
}

TEST(CheckDeathTest, MatrixBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_DEATH(m(2, 0), "GNN4TDL_CHECK failed");
  EXPECT_DEATH(m(0, 5), "GNN4TDL_CHECK failed");
}

TEST(TextFormatTest, AppendDoubleMatchesStreamAtPrecision17) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,     -0.0,     5e-324, DBL_MAX, 0.1,
                           1.0 / 3, 3.0,      1e21,   1e-5,    inf,
                           -inf,    std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    std::ostringstream stream;
    stream.precision(17);
    stream << v;
    std::string text = "x";
    AppendDouble(text, v);
    EXPECT_EQ(text, "x" + stream.str()) << "value " << stream.str();
  }
}

}  // namespace
}  // namespace gnn4tdl
