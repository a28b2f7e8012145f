#ifndef HYDRA_STORAGE_SERIES_FILE_H_
#define HYDRA_STORAGE_SERIES_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "core/dataset.h"
#include "storage/fault_injector.h"

namespace hydra {

// Flat binary dataset file: a small fixed header (magic, version,
// num_series, length) followed by the row-major float32 payload — the
// layout the original data-series tools consume, with an explicit header
// so files are self-describing.
//
// Format version 2 appends an integrity footer after the payload:
// num_series × uint32 CRC-32C, one checksum per series. Checksums are
// per-series rather than per-page because the pool's page size
// (series_per_page) is chosen at BufferManager::Open time, long after the
// file was written; per-series checksums verify any read granularity.
// Version-1 files (no footer) remain readable — verification is simply
// skipped, so pre-existing datasets keep working.
//
// All reads funnel through SeriesFileReader, which charges bytes and
// random-I/O counts to the caller's QueryCounters. A read is "random"
// when it is not contiguous with the previous read, matching how the
// paper counts disk seeks. Every read of a version-2 file is verified
// against the footer; a mismatch surfaces as Status::DataCorruption
// (retryable: the buffer pool re-reads once before giving up). I/O
// failures carry errno, file path and byte offset in the status message.
//
// ReadSeries is thread-safe and takes no lock: the reader holds a plain
// file descriptor and every read is one positioned `pread` (retried on
// EINTR and on partial reads). Concurrent reads — the buffer pool's
// single-flight page loads, prefetch workers — share no lock and no file
// position, and no single disk arm is modeled: they overlap in the kernel
// as requests overlap in a device's queue. Random-I/O accounting is the
// one shared state: each successful read atomically exchanges the "next
// sequential series" cursor for its own end, and is charged a random_ios
// when the cursor it took back is not its own first series. Serial reads
// are therefore charged exactly as a single seeking reader would charge
// them; concurrent reads are charged in the order of their exchanges. The
// counters a call charges are the caller's own (QueryCounters is
// single-writer).
//
// Emulated latency: HYDRA_SIM_IO_DELAY_US (microseconds per ReadSeries
// call, default 0 = off) sleeps in the calling thread right before its
// pread, emulating a storage device whose request latency overlaps
// across issuers. On dev
// boxes and CI the "disk" is the page cache — reads cost nanoseconds and
// nothing overlaps — so this is the honest way to study I/O-bound
// behavior (the async prefetch pipeline, pool thrashing) on such
// machines. Benches that enable it print the value; it never changes
// WHAT is read, only how long it takes.
//
// Fault injection: Open() arms a FaultInjector from the HYDRA_FAULT_*
// environment knobs (storage/fault_injector.h); tests can override with
// set_fault_config before issuing reads. Injected transient errors and
// short reads surface as Status::Unavailable (retryable), injected
// permanent errors as Status::IoError (not retryable), and injected
// bit flips corrupt the returned payload AFTER the disk read — on a
// version-2 file the checksum pass then catches them, which is exactly
// the detection path real corruption would take.
struct SeriesFileHeader {
  static constexpr uint32_t kMagic = 0x48594452;  // "HYDR"
  static constexpr uint32_t kVersion = 2;         // 1 = no checksum footer
  uint64_t num_series = 0;
  uint64_t length = 0;
};

// Writes `dataset` to `path` (format version 2, with the CRC-32C
// footer), overwriting any existing file.
Status WriteSeriesFile(const std::string& path, const Dataset& dataset);

class SeriesFileReader {
 public:
  static Result<std::unique_ptr<SeriesFileReader>> Open(
      const std::string& path);
  ~SeriesFileReader();

  SeriesFileReader(const SeriesFileReader&) = delete;
  SeriesFileReader& operator=(const SeriesFileReader&) = delete;

  uint64_t num_series() const { return header_.num_series; }
  uint64_t series_length() const { return header_.length; }
  const std::string& path() const { return path_; }

  // True when the file carries the version-2 checksum footer and every
  // read is verified.
  bool verifies_checksums() const { return !checksums_.empty(); }

  // Reads series [first, first + count) into `out` (count × length
  // floats); a range past the end is OutOfRange. On success charges
  // bytes_read and series_accessed, and one random_ios when the range
  // does not start where the previous read ended. A file shorter than
  // its header claims is a non-retryable IoError; any other read error
  // is a retryable Unavailable; both carry path, offset and errno. On a
  // version-2 file the payload is verified against the checksum footer;
  // a mismatch returns Status::DataCorruption and the contents of `out`
  // are unspecified.
  Status ReadSeries(uint64_t first, uint64_t count, float* out,
                    QueryCounters* counters);

  // Convenience: whole file into a Dataset (sequential, one seek).
  Result<Dataset> ReadAll(QueryCounters* counters);

  // Replaces the fault-injection config (normally armed from the
  // environment at Open). Call before issuing reads — the injector swap
  // is not synchronized against concurrent ReadSeries.
  void set_fault_config(const FaultConfig& config) {
    injector_ = std::make_unique<FaultInjector>(config);
  }

  // Injection telemetry for tests; never null.
  const FaultInjector& fault_injector() const { return *injector_; }

 private:
  SeriesFileReader(int fd, SeriesFileHeader header, std::string path,
                   std::vector<uint32_t> checksums, uint64_t sim_delay_us)
      : fd_(fd),
        header_(header),
        path_(std::move(path)),
        checksums_(std::move(checksums)),
        sim_delay_us_(sim_delay_us),
        injector_(std::make_unique<FaultInjector>(FaultConfig::FromEnv())) {}

  // Cursor value before the first read: matches no series index, so the
  // first read is always charged a random I/O.
  static constexpr uint64_t kNoReadYet = ~uint64_t{0};

  int fd_;
  SeriesFileHeader header_;
  std::string path_;
  std::vector<uint32_t> checksums_;  // empty for version-1 files
  uint64_t sim_delay_us_;  // emulated per-read latency (see above)
  std::unique_ptr<FaultInjector> injector_;
  // Series index right after the last successful read (see above).
  std::atomic<uint64_t> next_sequential_{kNoReadYet};
};

}  // namespace hydra

#endif  // HYDRA_STORAGE_SERIES_FILE_H_
