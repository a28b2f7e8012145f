#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(StorageTest, WriteThenReadAllRoundTrips) {
  Rng rng(1);
  Dataset ds = MakeRandomWalk(20, 32, rng);
  std::string path = Path("roundtrip.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());

  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_series(), 20u);
  EXPECT_EQ(reader.value()->series_length(), 32u);

  QueryCounters c;
  auto back = reader.value()->ReadAll(&c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values(), ds.values());
  EXPECT_EQ(c.bytes_read, ds.SizeBytes());
}

TEST_F(StorageTest, OpenMissingFileFails) {
  auto reader = SeriesFileReader::Open(Path("nope.hsf"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST_F(StorageTest, OpenGarbageFileFailsOnMagic) {
  std::string path = Path("garbage.hsf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  uint64_t junk[4] = {0xdeadbeef, 1, 2, 3};
  std::fwrite(junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto reader = SeriesFileReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, OpenRejectsHeaderSizesTheFileCannotHold) {
  auto write_header = [&](const std::string& name, uint64_t version,
                          uint64_t num_series, uint64_t length) {
    std::string path = Path(name);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const uint64_t head[4] = {SeriesFileHeader::kMagic, version, num_series,
                              length};
    std::fwrite(head, sizeof(head), 1, f);
    std::fclose(f);
    return path;
  };
  // A version-2 footer of 2^60 checksums: typed failure, no allocation.
  auto huge = SeriesFileReader::Open(
      write_header("huge_v2.hsf", 2, uint64_t{1} << 60, 1));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kIoError);
  // Byte sizes that wrap 64 bits.
  auto wrap = SeriesFileReader::Open(
      write_header("wrap_v1.hsf", 1, 4, uint64_t{1} << 62));
  ASSERT_FALSE(wrap.ok());
  EXPECT_EQ(wrap.status().code(), StatusCode::kInvalidArgument);
  // A version-1 file may still promise more than it holds: reads past
  // its end fail then (see TruncatedVersion1PayloadIsPermanentIoError).
  EXPECT_TRUE(SeriesFileReader::Open(write_header("empty_v1.hsf", 1, 4, 8))
                  .ok());
}

TEST_F(StorageTest, ReadPastEndRejected) {
  Rng rng(2);
  Dataset ds = MakeRandomWalk(4, 8, rng);
  std::string path = Path("short.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(8 * 8);
  EXPECT_EQ(reader.value()->ReadSeries(2, 3, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
}

TEST_F(StorageTest, SequentialReadsChargeOneSeek) {
  Rng rng(3);
  Dataset ds = MakeRandomWalk(10, 16, rng);
  std::string path = Path("seq.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());

  QueryCounters c;
  std::vector<float> buf(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader.value()->ReadSeries(i, 1, buf.data(), &c).ok());
  }
  EXPECT_EQ(c.random_ios, 1u);  // only the first read repositions
  EXPECT_EQ(c.series_accessed, 10u);
}

TEST_F(StorageTest, BackwardReadsChargeSeeks) {
  Rng rng(4);
  Dataset ds = MakeRandomWalk(10, 16, rng);
  std::string path = Path("rand.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());

  QueryCounters c;
  std::vector<float> buf(16);
  for (uint64_t i = 10; i-- > 0;) {
    ASSERT_TRUE(reader.value()->ReadSeries(i, 1, buf.data(), &c).ok());
  }
  EXPECT_EQ(c.random_ios, 10u);  // every read is a seek
}

TEST_F(StorageTest, ReadSeriesContentMatches) {
  Rng rng(5);
  Dataset ds = MakeRandomWalk(6, 12, rng);
  std::string path = Path("content.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(2 * 12);
  ASSERT_TRUE(reader.value()->ReadSeries(3, 2, buf.data(), nullptr).ok());
  for (size_t t = 0; t < 12; ++t) {
    EXPECT_FLOAT_EQ(buf[t], ds.series(3)[t]);
    EXPECT_FLOAT_EQ(buf[12 + t], ds.series(4)[t]);
  }
}

TEST_F(StorageTest, EmptyDatasetRoundTrips) {
  Dataset ds;
  std::string path = Path("empty.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_series(), 0u);
}

TEST(InMemoryProvider, ServesSeriesAndCountsAccess) {
  Rng rng(6);
  Dataset ds = MakeRandomWalk(5, 8, rng);
  InMemoryProvider provider(&ds);
  EXPECT_EQ(provider.num_series(), 5u);
  EXPECT_EQ(provider.series_length(), 8u);
  QueryCounters c;
  auto s = provider.GetSeries(2, &c);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_FLOAT_EQ(s[0], ds.series(2)[0]);
  EXPECT_EQ(c.series_accessed, 1u);
  EXPECT_EQ(c.bytes_read, 0u);  // in-memory: no I/O charge
}

TEST_F(StorageTest, BufferManagerServesCorrectData) {
  Rng rng(7);
  Dataset ds = MakeRandomWalk(40, 16, rng);
  std::string path = Path("bm.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, /*page_series=*/8,
                                /*capacity_pages=*/2);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  for (uint64_t i = 0; i < 40; ++i) {
    auto s = bm.value()->GetSeries(i, &c);
    ASSERT_EQ(s.size(), 16u);
    for (size_t t = 0; t < 16; ++t) {
      ASSERT_FLOAT_EQ(s[t], ds.series(i)[t]) << "series " << i;
    }
  }
}

TEST_F(StorageTest, BufferManagerCachesWithinPage) {
  Rng rng(8);
  Dataset ds = MakeRandomWalk(32, 8, rng);
  std::string path = Path("cache.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 4);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  // Sequential scan: 32 accesses, only 4 page misses.
  for (uint64_t i = 0; i < 32; ++i) bm.value()->GetSeries(i, &c);
  EXPECT_EQ(bm.value()->cache_misses(), 4u);
  EXPECT_EQ(bm.value()->cache_hits(), 28u);
  EXPECT_EQ(c.bytes_read, 32u * 8u * sizeof(float));
}

TEST_F(StorageTest, BufferManagerEvictsWhenFull) {
  Rng rng(9);
  Dataset ds = MakeRandomWalk(32, 8, rng);
  std::string path = Path("evict.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 1);  // one page only
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);   // page 0 miss
  bm.value()->GetSeries(1, &c);   // page 0 hit
  bm.value()->GetSeries(8, &c);   // page 1 miss: CLOCK evicts page 0
  bm.value()->GetSeries(0, &c);   // page 0 miss again
  EXPECT_EQ(bm.value()->cache_misses(), 3u);
  EXPECT_EQ(bm.value()->cache_hits(), 1u);
}

TEST_F(StorageTest, BufferManagerChargesRandomIoOnPageJumps) {
  Rng rng(10);
  Dataset ds = MakeRandomWalk(64, 8, rng);
  std::string path = Path("jumps.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 4, 1);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);   // page 0: first read (1 seek)
  bm.value()->GetSeries(32, &c);  // page 8: jump (1 seek)
  bm.value()->GetSeries(4, &c);   // page 1: backward jump (1 seek)
  EXPECT_EQ(c.random_ios, 3u);
}

TEST_F(StorageTest, BufferManagerDropCacheForcesRereads) {
  Rng rng(11);
  Dataset ds = MakeRandomWalk(8, 8, rng);
  std::string path = Path("drop.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 2);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);
  // Nothing is pinned, so the whole pool drops (0 pages retained).
  EXPECT_EQ(bm.value()->DropCache(), 0u);
  bm.value()->GetSeries(0, &c);
  EXPECT_EQ(bm.value()->cache_misses(), 2u);
}

TEST_F(StorageTest, BufferManagerRejectsZeroConfig) {
  Rng rng(12);
  Dataset ds = MakeRandomWalk(4, 4, rng);
  std::string path = Path("zero.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  EXPECT_FALSE(BufferManager::Open(path, 0, 2).ok());
  EXPECT_FALSE(BufferManager::Open(path, 2, 0).ok());
}

TEST_F(StorageTest, WriteToFullDeviceFails) {
  // /dev/full accepts the buffered fwrites and fails the final flush
  // with ENOSPC, so only a checked fclose sees the error.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Rng rng(13);
  Dataset ds = MakeRandomWalk(20, 32, rng);
  Status st = WriteSeriesFile("/dev/full", ds);
  ASSERT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  ASSERT_TRUE(st.has_io_context());
  EXPECT_EQ(st.io_context().path, "/dev/full");
  EXPECT_EQ(st.io_context().sys_errno, ENOSPC);
}

TEST_F(StorageTest, ReadRangeThatWouldWrapRejected) {
  Rng rng(14);
  Dataset ds = MakeRandomWalk(4, 8, rng);
  std::string path = Path("wrap.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(8);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // first + count wraps to 0 here; the bound must still reject it.
  EXPECT_EQ(reader.value()->ReadSeries(1, kMax, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(reader.value()->ReadSeries(kMax, 1, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(reader.value()->ReadSeries(5, 0, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(reader.value()->ReadSeries(4, 0, buf.data(), nullptr).ok());
}

TEST_F(StorageTest, ConcurrentReadsAreByteExact) {
  constexpr uint64_t kSeries = 200;
  constexpr uint64_t kLength = 24;
  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 300;
  Rng rng(15);
  Dataset ds = MakeRandomWalk(kSeries, kLength, rng);
  std::string path = Path("concurrent.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.value()->verifies_checksums());

  std::vector<QueryCounters> counters(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<uint64_t> series_read(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> buf(16 * kLength);
      for (int i = 0; i < kReadsPerThread; ++i) {
        // Ranges of 1..16 series that overlap across threads.
        const uint64_t count = 1 + (i * 7 + t) % 16;
        const uint64_t first = (i * 13 + t * 5) % (kSeries - count + 1);
        Status st = reader.value()->ReadSeries(first, count, buf.data(),
                                               &counters[t]);
        if (!st.ok()) {
          ++failures[t];
          continue;
        }
        series_read[t] += count;
        if (std::memcmp(buf.data(), ds.series(first).data(),
                        count * kLength * sizeof(float)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t random_ios = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(counters[t].series_accessed, series_read[t]);
    EXPECT_EQ(counters[t].bytes_read,
              series_read[t] * kLength * sizeof(float));
    random_ios += counters[t].random_ios;
  }
  EXPECT_GE(random_ios, 1u);
  EXPECT_LE(random_ios, uint64_t{kThreads} * kReadsPerThread);
}

TEST_F(StorageTest, TruncatedVersion1PayloadIsPermanentIoError) {
  // A version-1 file (no footer) whose payload stops after 6 of the 10
  // series its header claims.
  constexpr uint64_t kLength = 8;
  std::string path = Path("truncated_v1.hsf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint64_t head[4] = {SeriesFileHeader::kMagic, 1, 10, kLength};
    ASSERT_EQ(std::fwrite(head, sizeof(head), 1, f), 1u);
    std::vector<float> payload(6 * kLength, 1.5f);
    ASSERT_EQ(std::fwrite(payload.data(), sizeof(float), payload.size(), f),
              payload.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.value()->verifies_checksums());
  std::vector<float> buf(4 * kLength);
  ASSERT_TRUE(reader.value()->ReadSeries(2, 4, buf.data(), nullptr).ok());
  // Series [4, 8): two exist, then the file ends.
  Status st = reader.value()->ReadSeries(4, 4, buf.data(), nullptr);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_FALSE(st.IsRetryable());
  ASSERT_TRUE(st.has_io_context());
  EXPECT_EQ(st.io_context().path, path);
  EXPECT_EQ(st.io_context().offset, 32u + 4 * kLength * sizeof(float));
  EXPECT_EQ(st.io_context().sys_errno, 0);

  // The buffer pool must not retry an end of file.
  auto bm = BufferManager::Open(path, /*page_series=*/4,
                                /*capacity_pages=*/2);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  auto run = bm.value()->PinSeriesChecked(9, &c);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIoError);
  EXPECT_EQ(bm.value()->io_retries(), 0u);
  EXPECT_EQ(c.io_retries, 0u);
  EXPECT_TRUE(bm.value()->PinSeriesChecked(1, &c).ok());
}

}  // namespace
}  // namespace hydra
