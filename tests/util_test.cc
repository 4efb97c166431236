// Unit tests for the utility layer: Status/Result, Rng, BitVector,
// EpochSet, StatAccumulator, TablePrinter, env helpers, strict numeric
// parsing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "util/bit_vector.h"
#include "util/env.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace tcdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing key");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing key");
  EXPECT_EQ(status.ToString(), "NotFound: missing key");
}

// An OK status is a null pointer; only errors own heap state.
static_assert(sizeof(Status) == sizeof(void*));

TEST(StatusTest, CopyOfErrorIsDeep) {
  Status original = Status::Corruption("torn page");
  Status copy = original;
  EXPECT_EQ(copy.code(), StatusCode::kCorruption);
  EXPECT_EQ(copy.message(), "torn page");
  EXPECT_NE(&copy.message(), &original.message());
  original = Status::Ok();  // the copy outlives its source's state
  EXPECT_TRUE(original.ok());
  EXPECT_EQ(copy.ToString(), "Corruption: torn page");

  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned.code(), StatusCode::kCorruption);
  EXPECT_EQ(assigned.message(), "torn page");
  EXPECT_NE(&assigned.message(), &copy.message());
  assigned = Status::NotFound("other");
  EXPECT_EQ(copy.message(), "torn page");
}

TEST(StatusTest, OkCodeWithMessageIsOk) {
  Status status(StatusCode::kOk, "x");
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ToStringFormat) {
  EXPECT_EQ(Status::InvalidArgument("bad").ToString(),
            "InvalidArgument: bad");
  EXPECT_EQ(Status(StatusCode::kInternal, "").ToString(), "Internal");
  EXPECT_EQ(Status::ResourceExhausted("all buffer frames are pinned")
                .ToString(),
            "ResourceExhausted: all buffer frames are pinned");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kCorruption}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::OutOfRange("x"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ErrorKeepsCodeAndMessage) {
  const Status error = Status::FailedPrecondition("not loaded");
  Result<std::string> result(error);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.status().message(), "not loaded");
  Result<std::string> moved(Status::NotFound("gone"));
  EXPECT_EQ(moved.status().ToString(), "NotFound: gone");
  EXPECT_EQ(error.message(), "not loaded");  // copied, not moved from
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

Status FailsThenPropagates() {
  TCDB_RETURN_IF_ERROR(Status::Corruption("inner"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kCorruption);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) differing += a.Next() != b.Next();
  EXPECT_GT(differing, 15);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t value = rng.Uniform(-3, 12);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 12);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(99);
  std::set<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.insert(rng.Uniform(0, 9));
  EXPECT_EQ(values.size(), 10u);
}

TEST(RngTest, UniformSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.Uniform(4, 4), 4);
}

TEST(RngTest, UniformIsApproximatelyUniform) {
  Rng rng(42);
  std::map<int64_t, int> histogram;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) histogram[rng.Uniform(0, 4)]++;
  for (const auto& [value, count] : histogram) {
    EXPECT_NEAR(count, kSamples / 5, kSamples / 50) << "value " << value;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(BitVectorTest, SetTestClear) {
  BitVector bits(130);
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitVectorTest, TestAndSet) {
  BitVector bits(10);
  EXPECT_TRUE(bits.TestAndSet(3));
  EXPECT_FALSE(bits.TestAndSet(3));
  EXPECT_EQ(bits.Count(), 1u);
}

TEST(BitVectorTest, ResetClearsAll) {
  BitVector bits(100);
  for (size_t i = 0; i < 100; i += 7) bits.Set(i);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitVectorTest, UnionAndIntersect) {
  BitVector a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(1);
  b.Set(2);
  BitVector u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Count(), 3u);
  BitVector i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(1));
}

TEST(EpochSetTest, InsertAndContains) {
  EpochSet set(50);
  EXPECT_FALSE(set.Contains(10));
  set.Insert(10);
  EXPECT_TRUE(set.Contains(10));
  EXPECT_FALSE(set.InsertIfAbsent(10));
  EXPECT_TRUE(set.InsertIfAbsent(11));
}

TEST(EpochSetTest, ClearAllIsO1AndComplete) {
  EpochSet set(100);
  for (size_t i = 0; i < 100; ++i) set.Insert(i);
  set.ClearAll();
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(set.Contains(i));
}

TEST(EpochSetTest, SurvivesManyEpochs) {
  EpochSet set(4);
  for (int round = 0; round < 100000; ++round) {
    set.Insert(round % 4);
    set.ClearAll();
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_FALSE(set.Contains(i));
}

TEST(StatAccumulatorTest, BasicMoments) {
  StatAccumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
}

TEST(StatAccumulatorTest, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(StatAccumulatorTest, MergeMatchesSequential) {
  StatAccumulator all, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.NewRow().AddCell("x").AddCell(int64_t{12345});
  table.NewRow().AddCell("longer").AddCell(3.14159, 2);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 3.14  |"), std::string::npos);
}

TEST(TablePrinterTest, HandlesMissingCells) {
  TablePrinter table({"a", "b", "c"});
  table.NewRow().AddCell("only");
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| only |"), std::string::npos);
}

TEST(EnvTest, ParsesInteger) {
  setenv("TCDB_TEST_ENV", "42", 1);
  EXPECT_EQ(GetEnvInt("TCDB_TEST_ENV", 0), 42);
  unsetenv("TCDB_TEST_ENV");
  EXPECT_EQ(GetEnvInt("TCDB_TEST_ENV", 7), 7);
}

TEST(EnvTest, RejectsGarbage) {
  setenv("TCDB_TEST_ENV", "12abc", 1);
  EXPECT_EQ(GetEnvInt("TCDB_TEST_ENV", 7), 7);
  unsetenv("TCDB_TEST_ENV");
}

TEST(EnvTest, BoolSemantics) {
  setenv("TCDB_TEST_ENV", "1", 1);
  EXPECT_TRUE(GetEnvBool("TCDB_TEST_ENV"));
  setenv("TCDB_TEST_ENV", "0", 1);
  EXPECT_FALSE(GetEnvBool("TCDB_TEST_ENV"));
  unsetenv("TCDB_TEST_ENV");
  EXPECT_FALSE(GetEnvBool("TCDB_TEST_ENV"));
}

TEST(ParseNumberTest, AcceptsWholeNumbers) {
  EXPECT_EQ(ParseNumber<int32_t>("0").value(), 0);
  EXPECT_EQ(ParseNumber<int32_t>("-17").value(), -17);
  EXPECT_EQ(ParseNumber<int64_t>("9223372036854775807").value(),
            INT64_MAX);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615").value(),
            UINT64_MAX);
  EXPECT_DOUBLE_EQ(ParseNumber<double>("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseNumber<double>("1e-3").value(), 1e-3);
}

TEST(ParseNumberTest, RejectsNonNumericTrailingJunkAndOverflow) {
  for (const char* bad : {"", "abc", "12x", " 5", "5 ", "+5", "1,2", "--1",
                          "0x10"}) {
    const Result<int64_t> parsed = ParseNumber<int64_t>(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  // Out of the target type's range, not merely out of int64.
  EXPECT_FALSE(ParseNumber<int32_t>("2147483648").ok());
  EXPECT_TRUE(ParseNumber<int32_t>("2147483647").ok());
  EXPECT_FALSE(ParseNumber<int64_t>("9223372036854775808").ok());
  EXPECT_FALSE(ParseNumber<uint64_t>("-1").ok());
  EXPECT_FALSE(ParseNumber<double>("0.x").ok());
  EXPECT_FALSE(ParseNumber<double>("1e999").ok());
  EXPECT_FALSE(ParseNumber<double>("nan").ok());
  EXPECT_FALSE(ParseNumber<double>("inf").ok());
  EXPECT_EQ(ParseNumber<int32_t>("12x").status().message(),
            "'12x' is not a number");
}

}  // namespace
}  // namespace tcdb
