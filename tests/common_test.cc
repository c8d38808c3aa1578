#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace sam {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad arg");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

Status FailingOp() { return Status::NotFound("missing"); }

Status Propagates() {
  SAM_RETURN_NOT_OK(FailingOp());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  SAM_ASSIGN_OR_RETURN(int h, HalfOf(x));
  return HalfOf(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(QuarterOf(8).ValueOrDie(), 2);
  EXPECT_FALSE(QuarterOf(6).ok());
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> w = {0.0, 5.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(w), 1);
  }
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), -1);
}

TEST(RngTest, CategoricalIsApproximatelyProportional) {
  Rng rng(3);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(RngTest, ZipfIsSkewedTowardsSmallIndices) {
  Rng rng(4);
  int small = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = rng.Zipf(100, 1.5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    if (v < 10) ++small;
  }
  EXPECT_GT(small, n / 2);
}

TEST(RngTest, ZipfHandlesExponentBelowOne) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.Zipf(50, 0.8);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
  }
}

TEST(RngTest, GumbelIsFinite) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(std::isfinite(GumbelFromUniform(rng.Uniform())));
  }
  // Both ends of [0, 1): 0 is clamped, the largest double below 1 is finite.
  EXPECT_TRUE(std::isfinite(GumbelFromUniform(0.0)));
  EXPECT_TRUE(std::isfinite(GumbelFromUniform(1.0 - 0x1.0p-53)));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"x", "y", "z"}, "|"), "x|y|z");
  EXPECT_EQ(Join({}, "|"), "");
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ParseInt64AcceptsWholeIntegers) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-7").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt64("  1048576  ").ValueOrDie(), 1048576);
  EXPECT_EQ(ParseInt64("9223372036854775807").ValueOrDie(),
            INT64_C(9223372036854775807));
}

TEST(StringUtilTest, ParseInt64RejectsJunkAndOverflow) {
  EXPECT_EQ(ParseInt64("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("   ").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("garbage").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("12abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("3.5").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("9223372036854775808").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, ParseFloat64AcceptsFiniteNumbers) {
  EXPECT_DOUBLE_EQ(ParseFloat64("1.5").ValueOrDie(), 1.5);
  EXPECT_DOUBLE_EQ(ParseFloat64("-2e3").ValueOrDie(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseFloat64(" 0.25 ").ValueOrDie(), 0.25);
}

TEST(StringUtilTest, ParseFloat64RejectsJunkAndInfinity) {
  EXPECT_EQ(ParseFloat64("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFloat64("garbage").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFloat64("1.5x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFloat64("1e999").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, FormatMetricSwitchesNotation) {
  EXPECT_EQ(FormatMetric(1.274), "1.27");
  EXPECT_EQ(FormatMetric(149.53), "149.5");
  EXPECT_EQ(FormatMetric(2e6), "2.0e+06");
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace sam
