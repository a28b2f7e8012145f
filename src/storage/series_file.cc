#include "storage/series_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "common/crc32.h"
#include "common/options.h"

namespace hydra {
namespace {

constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);  // magic+ver+n+len

// HYDRA_SIM_IO_DELAY_US, parsed at every Open so a bench can flip the
// knob between sections (see the header comment).
uint64_t SimIoDelayUs() { return EnvOrU64("HYDRA_SIM_IO_DELAY_US", 0); }

// "path @ offset N" context appended to every I/O status message so a
// failure in a multi-file experiment names the file and byte it died
// on; the same fields travel as a structured IoContext (see Ctx) so
// remote clients get them typed, not just as text.
std::string At(const std::string& path, uint64_t offset) {
  return path + " @ offset " + std::to_string(offset);
}

IoContext Ctx(const std::string& path, uint64_t offset, int err = 0) {
  IoContext ctx;
  ctx.path = path;
  ctx.offset = offset;
  ctx.sys_errno = err;
  return ctx;
}

// Outcome of PreadFull: `got` bytes arrived; `err` is the errno that
// stopped it early, or 0 when it reached end of file (or finished).
struct PreadOutcome {
  size_t got = 0;
  int err = 0;
};

// Reads `bytes` at `offset`, retrying on EINTR and on partial reads, so a
// short count means end of file (err 0) or a device error (err set).
PreadOutcome PreadFull(int fd, void* buf, size_t bytes, uint64_t offset) {
  PreadOutcome outcome;
  auto* dst = static_cast<char*>(buf);
  while (outcome.got < bytes) {
    const ssize_t n = ::pread(fd, dst + outcome.got, bytes - outcome.got,
                              static_cast<off_t>(offset + outcome.got));
    if (n > 0) {
      outcome.got += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      outcome.err = errno;
      break;
    }
  }
  return outcome;
}

std::string ErrnoDetail(int err) {
  return err != 0 ? std::string(" (errno ") + std::to_string(err) + ": " +
                        std::strerror(err) + ")"
                  : std::string();
}

}  // namespace

Status WriteSeriesFile(const std::string& path, const Dataset& dataset) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    const int err = errno;
    return Status::IoError("cannot open for write: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
  }
  uint64_t head[4] = {SeriesFileHeader::kMagic, SeriesFileHeader::kVersion,
                      dataset.size(), dataset.length()};
  bool ok = std::fwrite(head, sizeof(head), 1, f) == 1;
  if (ok && !dataset.values().empty()) {
    ok = std::fwrite(dataset.values().data(), sizeof(float),
                     dataset.values().size(),
                     f) == dataset.values().size();
  }
  // Integrity footer: one CRC-32C per series, computed from the payload
  // being written so verification catches anything the storage stack
  // changes afterwards.
  if (ok && dataset.size() > 0) {
    std::vector<uint32_t> checksums(dataset.size());
    for (uint64_t i = 0; i < dataset.size(); ++i) {
      checksums[i] =
          Crc32c(dataset.series(i).data(), dataset.length() * sizeof(float));
    }
    ok = std::fwrite(checksums.data(), sizeof(uint32_t), checksums.size(),
                     f) == checksums.size();
  }
  // Buffered writes can fail only at the final flush (a full disk takes
  // the whole file into the stdio buffer first), so fclose's verdict
  // counts as much as fwrite's. errno is captured before fclose can
  // overwrite it.
  ok = ok && std::ferror(f) == 0;
  int err = ok ? 0 : errno;
  if (std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    return Status::IoError("short write: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
  }
  return Status::OK();
}

Result<std::unique_ptr<SeriesFileReader>> SeriesFileReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    return Status::IoError("cannot open for read: " + path + ErrnoDetail(err))
        .WithIoContext(Ctx(path, 0, err));
  }
  uint64_t head[4];
  PreadOutcome read = PreadFull(fd, head, sizeof(head), 0);
  if (read.got != sizeof(head)) {
    ::close(fd);
    return Status::IoError("short header read: " + path +
                           ErrnoDetail(read.err))
        .WithIoContext(Ctx(path, 0, read.err));
  }
  if (head[0] != SeriesFileHeader::kMagic) {
    ::close(fd);
    return Status::InvalidArgument("bad magic in " + path)
        .WithIoContext(Ctx(path, 0));
  }
  if (head[1] != 1 && head[1] != SeriesFileHeader::kVersion) {
    ::close(fd);
    return Status::InvalidArgument("unsupported version " +
                                   std::to_string(head[1]) + " in " + path)
        .WithIoContext(Ctx(path, 0));
  }
  SeriesFileHeader header;
  header.num_series = head[2];
  header.length = head[3];
  // The header is outside input: sizes whose byte offsets do not fit a
  // file offset would make every later offset computation wrap.
  uint64_t stride = 0;
  uint64_t payload = 0;
  if (__builtin_mul_overflow(header.length, sizeof(float), &stride) ||
      __builtin_mul_overflow(header.num_series, stride, &payload) ||
      payload > static_cast<uint64_t>(std::numeric_limits<off_t>::max()) -
                    kHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument("series file header sizes overflow: " +
                                   std::to_string(header.num_series) + " x " +
                                   std::to_string(header.length) + " in " +
                                   path)
        .WithIoContext(Ctx(path, 0));
  }
  // Version 2 carries the checksum footer after the payload; load it up
  // front so every ReadSeries can verify without extra reads. Version-1
  // files leave `checksums` empty and skip verification.
  std::vector<uint32_t> checksums;
  if (head[1] >= 2 && header.num_series > 0) {
    const uint64_t footer_at = kHeaderBytes + payload;
    // A footer the file cannot hold fails like a short read, before a
    // corrupt series count can size the allocation.
    struct stat info;
    const int stat_err = ::fstat(fd, &info) != 0 ? errno : 0;
    const uint64_t file_bytes =
        stat_err == 0 ? static_cast<uint64_t>(info.st_size) : 0;
    if (stat_err != 0 || file_bytes < footer_at ||
        (file_bytes - footer_at) / sizeof(uint32_t) < header.num_series) {
      ::close(fd);
      return Status::IoError("short checksum footer read: " +
                             At(path, footer_at) + ErrnoDetail(stat_err))
          .WithIoContext(Ctx(path, footer_at, stat_err));
    }
    checksums.resize(header.num_series);
    const size_t want = checksums.size() * sizeof(uint32_t);
    read = PreadFull(fd, checksums.data(), want, footer_at);
    if (read.got != want) {
      ::close(fd);
      return Status::IoError("short checksum footer read: " +
                             At(path, footer_at) + ErrnoDetail(read.err))
          .WithIoContext(Ctx(path, footer_at, read.err));
    }
  }
  return std::unique_ptr<SeriesFileReader>(new SeriesFileReader(
      fd, header, path, std::move(checksums), SimIoDelayUs()));
}

SeriesFileReader::~SeriesFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status SeriesFileReader::ReadSeries(uint64_t first, uint64_t count,
                                    float* out, QueryCounters* counters) {
  // Written so that no sum can wrap: `first + count` overflows for a
  // huge count and would pass a naive bound.
  if (first > header_.num_series || count > header_.num_series - first) {
    return Status::OutOfRange(
        "read past end of series file: " + std::to_string(count) +
        " series from series " + std::to_string(first) + " of " +
        std::to_string(header_.num_series) + " in " + path_);
  }
  const uint64_t stride = header_.length * sizeof(float);
  const uint64_t offset = kHeaderBytes + first * stride;
  // Fault-injection verdict for this attempt, drawn before any real work
  // so injected failures cost no I/O (a failed device request returns
  // without transferring data).
  FaultInjector::Decision fault;
  if (injector_->enabled()) {
    fault = injector_->Decide(first, count, count * header_.length);
    if (fault.latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(fault.latency_us));
    }
    if (fault.permanent_error) {
      return Status::IoError("injected permanent I/O error: " +
                             At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
    if (fault.transient_error) {
      return Status::Unavailable("injected transient I/O error: " +
                                 At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
    if (fault.short_read) {
      return Status::Unavailable("injected short read: " + At(path_, offset))
          .WithIoContext(Ctx(path_, offset));
    }
  }
  if (sim_delay_us_ > 0) {
    // Emulated device latency: concurrent issuers (demand fetch +
    // prefetch workers) overlap their waits, as requests overlap in a
    // real disk's queue.
    std::this_thread::sleep_for(std::chrono::microseconds(sim_delay_us_));
  }
  const size_t want = static_cast<size_t>(count * stride);
  const PreadOutcome read = PreadFull(fd_, out, want, offset);
  if (read.got != want) {
    // A true end of file means the file is shorter than its header
    // claims — that never heals, so it is a plain IoError. A device
    // error (EIO from a flaky device) may clear on re-read, so it
    // surfaces as retryable Unavailable.
    const bool at_eof = read.err == 0;
    const std::string detail =
        "short payload read: got " + std::to_string(read.got) + " of " +
        std::to_string(want) + " bytes, series [" + std::to_string(first) +
        ", " + std::to_string(first + count) + ") in " + At(path_, offset) +
        ErrnoDetail(read.err);
    return (at_eof ? Status::IoError(detail) : Status::Unavailable(detail))
        .WithIoContext(Ctx(path_, offset, read.err));
  }
  // The exchange orders concurrent reads: each is sequential iff it
  // starts where the read exchanged just before it ended.
  const uint64_t previous_end =
      next_sequential_.exchange(first + count, std::memory_order_relaxed);
  if (counters != nullptr) {
    counters->bytes_read += count * stride;
    counters->series_accessed += count;
    if (previous_end != first) ++counters->random_ios;
  }
  // Injected corruption flips payload bits AFTER the (correct) disk read,
  // modeling the device lying; on version-2 files the checksum pass below
  // is what catches it.
  injector_->CorruptPayload(fault, out, count * header_.length);
  if (!checksums_.empty()) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint32_t actual =
          Crc32c(out + i * header_.length, stride);
      if (actual != checksums_[first + i]) {
        return Status::DataCorruption(
                   "checksum mismatch on series " + std::to_string(first + i) +
                   ": " + At(path_, offset + i * stride))
            .WithIoContext(Ctx(path_, offset + i * stride));
      }
    }
  }
  return Status::OK();
}

Result<Dataset> SeriesFileReader::ReadAll(QueryCounters* counters) {
  Dataset ds(header_.num_series, header_.length);
  if (header_.num_series > 0) {
    HYDRA_RETURN_IF_ERROR(ReadSeries(0, header_.num_series,
                                     ds.mutable_series(0).data(), counters));
  }
  return ds;
}

}  // namespace hydra
