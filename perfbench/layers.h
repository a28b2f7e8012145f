#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Forwarding wrappers that time the index and storage layers from
// outside, through their public interfaces. Both forward every virtual
// unchanged — capabilities, pin and prefetch budgets, concurrency
// support — so admission, batching and pin clamps see exactly what they
// would see without the wrapper. While recording is off (trace.h) each
// call costs one extra virtual dispatch and one relaxed load.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "index/index.h"
#include "storage/buffer_manager.h"
#include "trace.h"

namespace perfbench {

// Index layer: one "index.search" span per Search call and one
// "index.batch" span per coalesced BatchSearch call (members = batch
// size). Provider calls made inside either are folded into the span as
// its storage child time.
class TracedIndex : public hydra::Index {
 public:
  explicit TracedIndex(const hydra::Index& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  hydra::IndexCapabilities capabilities() const override {
    return inner_.capabilities();
  }
  size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  hydra::Result<hydra::KnnAnswer> Search(
      std::span<const float> query, const hydra::SearchParams& params,
      hydra::QueryCounters* counters) const override {
    ScopedSpan span("index.search", 0, 1);
    return inner_.Search(query, params, counters);
  }

  std::vector<hydra::Result<hydra::KnnAnswer>> BatchSearch(
      std::span<const hydra::BatchQuery> batch) const override {
    ScopedSpan span("index.batch", 0, static_cast<uint32_t>(batch.size()));
    return inner_.BatchSearch(batch);
  }

 private:
  const hydra::Index& inner_;
};

// Storage layer: times every Pin*/Get*/Prefetch call into the thread's
// storage accumulator.
class TracedProvider : public hydra::SeriesProvider {
 public:
  explicit TracedProvider(hydra::SeriesProvider* inner) : inner_(inner) {}

  uint64_t num_series() const override { return inner_->num_series(); }
  uint64_t series_length() const override { return inner_->series_length(); }

  std::span<const float> GetSeries(uint64_t i,
                                   hydra::QueryCounters* c) override {
    return TimeStorage([&] { return inner_->GetSeries(i, c); });
  }
  std::span<const float> GetSeriesRun(uint64_t first, uint64_t max_count,
                                      hydra::QueryCounters* c) override {
    return TimeStorage(
        [&] { return inner_->GetSeriesRun(first, max_count, c); });
  }
  hydra::PinnedRun PinSeries(uint64_t i, hydra::QueryCounters* c) override {
    return TimeStorage([&] { return inner_->PinSeries(i, c); });
  }
  hydra::PinnedRun PinRun(uint64_t first, uint64_t max_count,
                          hydra::QueryCounters* c) override {
    return TimeStorage([&] { return inner_->PinRun(first, max_count, c); });
  }
  hydra::Result<hydra::PinnedRun> PinSeriesChecked(
      uint64_t i, hydra::QueryCounters* c) override {
    return TimeStorage([&] { return inner_->PinSeriesChecked(i, c); });
  }
  hydra::Result<hydra::PinnedRun> PinRunChecked(
      uint64_t first, uint64_t max_count, hydra::QueryCounters* c) override {
    return TimeStorage(
        [&] { return inner_->PinRunChecked(first, max_count, c); });
  }
  void Prefetch(uint64_t first, uint64_t count, hydra::QueryCounters* c,
                std::shared_ptr<hydra::CancellationToken> cancel) override {
    TimeStorage([&] {
      inner_->Prefetch(first, count, c, std::move(cancel));
      return 0;
    });
  }

  uint64_t MaxConcurrentPins() const override {
    return inner_->MaxConcurrentPins();
  }
  uint64_t SeriesPerPage() const override { return inner_->SeriesPerPage(); }
  uint64_t MaxPrefetchPages() const override {
    return inner_->MaxPrefetchPages();
  }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }

 private:
  hydra::SeriesProvider* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
