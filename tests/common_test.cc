#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace hydra {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoryFunctionsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(Status, AllCodesHaveDistinctNames) {
  std::set<std::string> names;
  names.insert(Status::InvalidArgument("").ToString());
  names.insert(Status::NotFound("").ToString());
  names.insert(Status::IoError("").ToString());
  names.insert(Status::FailedPrecondition("").ToString());
  names.insert(Status::OutOfRange("").ToString());
  names.insert(Status::Unimplemented("").ToString());
  names.insert(Status::Internal("").ToString());
  EXPECT_EQ(names.size(), 7u);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status Helper(bool fail) {
  if (fail) return Status::Internal("inner");
  return Status::OK();
}

Status Caller(bool fail) {
  HYDRA_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(Result, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(false).ok());
  EXPECT_EQ(Caller(true).code(), StatusCode::kInternal);
}

Result<int> MakeInt(bool fail) {
  if (fail) return Status::OutOfRange("nope");
  return 7;
}

Status UseAssign(bool fail, int* out) {
  HYDRA_ASSIGN_OR_RETURN(*out, MakeInt(fail));
  return Status::OK();
}

TEST(Result, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssign(false, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UseAssign(true, &out).code(), StatusCode::kOutOfRange);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextDouble() == b.NextDouble()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextUint64RespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(Rng, NextUint64CoversRange) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, UniformRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, ExponentialIsPositiveWithMeanNearInverseRate) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextExponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, SplitIsDeterministicAndDecorrelated) {
  // Same parent state + same stream index -> identical substream.
  Rng a(99), b(99);
  Rng child_a = a.Split(3);
  Rng child_b = b.Split(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_a.NextUint64(1u << 30), child_b.NextUint64(1u << 30));
  }
  // Distinct streams from the same parent state differ.
  Rng c(99), d(99);
  Rng child_c = c.Split(0);
  Rng child_d = d.Split(1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= child_c.NextUint64(1u << 30) != child_d.NextUint64(1u << 30);
  }
  EXPECT_TRUE(any_diff);
  // Split advances the parent exactly once: the next parent draw matches
  // a parent that burned one engine value.
  Rng e(1234), f(1234);
  (void)e.Split(7);
  (void)f.engine()();
  EXPECT_EQ(e.NextUint64(1u << 30), f.NextUint64(1u << 30));
}

TEST(QueryCounters, AccumulateAddsEveryField) {
  QueryCounters a;
  a.full_distances = 1;
  a.abandoned_distances = 8;
  a.lb_distances = 2;
  a.series_accessed = 3;
  a.bytes_read = 4;
  a.random_ios = 5;
  a.leaves_visited = 6;
  a.nodes_pushed = 7;
  QueryCounters b = a;
  b += a;
  EXPECT_EQ(b.full_distances, 2u);
  EXPECT_EQ(b.abandoned_distances, 16u);
  EXPECT_EQ(b.lb_distances, 4u);
  EXPECT_EQ(b.series_accessed, 6u);
  EXPECT_EQ(b.bytes_read, 8u);
  EXPECT_EQ(b.random_ios, 10u);
  EXPECT_EQ(b.leaves_visited, 12u);
  EXPECT_EQ(b.nodes_pushed, 14u);
}

TEST(QueryCounters, ResetZeroes) {
  QueryCounters a;
  a.full_distances = 9;
  a.bytes_read = 11;
  a.Reset();
  EXPECT_EQ(a.full_distances, 0u);
  EXPECT_EQ(a.bytes_read, 0u);
}

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x = x + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(Timer, RestartResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  double first = t.ElapsedSeconds();
  t.Restart();
  EXPECT_LE(t.ElapsedSeconds(), first + 1.0);
}

// RFC 3720 (iSCSI) appendix B.4 known answers for CRC-32C.
TEST(Crc32c, KnownAnswers) {
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xFF);
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits.data(), 0), 0u);
  // The portable path gives the same answers on every machine.
  EXPECT_EQ(internal::Crc32cTable(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
  EXPECT_EQ(internal::Crc32cTable(ones.data(), ones.size(), 0), 0x62A8AB43u);
  EXPECT_EQ(internal::Crc32cTable(digits.data(), digits.size(), 0),
            0xE3069283u);
}

TEST(Crc32c, ChainingEqualsOneShot) {
  const std::string digits = "123456789";
  for (size_t split = 0; split <= digits.size(); ++split) {
    const uint32_t head = Crc32c(digits.data(), split);
    EXPECT_EQ(Crc32c(digits.data() + split, digits.size() - split, head),
              0xE3069283u)
        << "split " << split;
  }
}

// The hardware path must compute exactly what the table path computes,
// for every length, alignment and chained starting value.
TEST(Crc32c, HardwareMatchesTable) {
#if HYDRA_CRC32C_HAS_SSE42_PATH
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  Rng rng(2024);
  std::vector<uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextUint64(256));
  for (size_t len = 0; len <= 1024; ++len) {
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      const uint8_t* p = buf.data() + misalign;
      for (uint32_t crc : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
        ASSERT_EQ(internal::Crc32cSse42(p, len, crc),
                  internal::Crc32cTable(p, len, crc))
            << "len " << len << " misalign " << misalign << " crc " << crc;
      }
    }
  }
  EXPECT_EQ(Crc32c(buf.data(), 100), internal::Crc32cSse42(buf.data(), 100, 0));
#else
  GTEST_SKIP() << "no SSE4.2 path on this target";
#endif
}

}  // namespace
}  // namespace hydra
