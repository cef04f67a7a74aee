#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace gradoop {
namespace {

// --- Status / Result ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kPlanError, StatusCode::kExecutionError,
        StatusCode::kNotFound, StatusCode::kUnsupported,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GRADOOP_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  auto bad = Quarter(6);  // 6/2 = 3, odd
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --- Random ---------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, SeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RandomTest, BoundedStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfIsSkewed) {
  Random rng(11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[rng.NextZipf(100, 1.2)]++;
  // Rank 0 must dominate rank 50 by a wide margin.
  EXPECT_GT(counts[0], 10 * std::max(counts[50], 1));
  for (const auto& [k, v] : counts) EXPECT_LT(k, 100u);
}

// Naive reference: rebuilds the CDF for every draw and consumes one
// NextDouble from `rng`, exactly as a single Zipf draw must.
uint64_t ReferenceZipf(Random* rng, uint64_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (uint64_t i = 0; i < n; ++i) cdf[i] /= sum;
  const double u = rng->NextDouble();
  return static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin());
}

TEST(RandomTest, ZipfInterleavedPairsMatchPerDrawReference) {
  // The generator alternates draws over several (n, s) distributions;
  // caching their CDFs must not change a single draw.
  Random cached(29);
  Random reference(29);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t n = i % 3 == 0 ? 1000 : 37;
    const double s = i % 3 == 0 ? 1.0 : 1.7;
    ASSERT_EQ(cached.NextZipf(n, s), ReferenceZipf(&reference, n, s))
        << "draw " << i;
  }
}

TEST(RandomTest, PowerLawDegreesInRangeAndSkewed) {
  Random rng(13);
  uint64_t ones = 0, big = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t d = rng.NextPowerLawDegree(1, 100, 2.2);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 100u);
    if (d == 1) ++ones;
    if (d > 50) ++big;
  }
  EXPECT_GT(ones, 10000u);  // most mass at the minimum
  EXPECT_GT(big, 0u);       // but a heavy tail exists
}

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(SplitString("a;b;", ';'),
            (std::vector<std::string>{"a", "b", ""}));
}

TEST(StringsTest, JoinRoundTrips) {
  const std::vector<std::string> parts = {"p1", "s", "u"};
  EXPECT_EQ(JoinStrings(parts, ", "), "p1, s, u");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  MATCH \t\n"), "MATCH");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("MATCH", "match"));
  EXPECT_TRUE(EqualsIgnoreCase("WhErE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("MATCH", "MATC"));
  EXPECT_FALSE(EqualsIgnoreCase("RETURN", "RETURM"));
}

TEST(StringsTest, ToUpperAscii) {
  EXPECT_EQ(ToUpperAscii("return *"), "RETURN *");
}

}  // namespace
}  // namespace gradoop
