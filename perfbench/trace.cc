#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace internal {

std::atomic<bool> g_enabled{false};

// Only the owning thread touches the fields above `mu`.
struct ThreadLog {
  uint32_t thread = 0;
  uint32_t next_seq = 0;
  uint64_t open = 0;  // innermost open span's id

  std::mutex mu;
  std::vector<Span> spans;  // guarded by mu
};

namespace {

std::atomic<double> g_ns_per_tick{1.0};
std::once_flag g_calibrated;

void Calibrate() {
  const uint64_t ns0 = NowNs();
  const uint64_t ticks0 = Ticks();
  while (NowNs() - ns0 < 20'000'000) {
  }
  const uint64_t ticks = Ticks() - ticks0;
  if (ticks > 0) {
    g_ns_per_tick.store(static_cast<double>(NowNs() - ns0) / ticks);
  }
}

std::mutex g_registry_mu;
// Logs outlive their threads: server connection threads exit when their
// client disconnects, but their spans are collected at the end.
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_registry_mu
thread_local ThreadLog* t_log = nullptr;

uint64_t NextId(ThreadLog& log) {
  return (static_cast<uint64_t>(log.thread) << 32) | ++log.next_seq;
}

void Append(ThreadLog& log, const Span& span) {
  std::lock_guard<std::mutex> lock(log.mu);
  log.spans.push_back(span);
}

}  // namespace

ThreadLog& Local() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<uint32_t>(g_logs.size());
    t_log = g_logs.back().get();
  }
  return *t_log;
}

}  // namespace internal

using internal::ThreadLog;

void SetEnabled(bool on) {
  if (on) std::call_once(internal::g_calibrated, internal::Calibrate);
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

double NsPerTick() {
  return internal::g_ns_per_tick.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request_id,
                       uint32_t members)
    : log_(Enabled() ? &internal::Local() : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = internal::NextId(*log_);
  span_.parent = log_->open;
  span_.request_id = request_id != 0 ? request_id : span_.id;
  span_.members = members;
  saved_open_ = log_->open;
  log_->open = span_.id;
  storage_calls0_ = internal::t_storage_calls;
  storage_ticks0_ = internal::t_storage_ticks;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  span_.storage_calls = internal::t_storage_calls - storage_calls0_;
  span_.storage_ns = static_cast<uint64_t>(
      (internal::t_storage_ticks - storage_ticks0_) *
      NsPerTick());
  log_->open = saved_open_;
  internal::Append(*log_, span_);
}

void RecordSpan(const char* name, uint64_t request_id, uint64_t start_ns,
                uint64_t end_ns) {
  ThreadLog& log = internal::Local();
  Span span;
  span.name = name;
  span.id = internal::NextId(log);
  span.parent = log.open;
  span.request_id = request_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  internal::Append(log, span);
}

std::vector<Span> CollectSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> registry(internal::g_registry_mu);
  for (auto& log : internal::g_logs) {
    std::lock_guard<std::mutex> lock(log->mu);
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> registry(internal::g_registry_mu);
  for (auto& log : internal::g_logs) {
    std::lock_guard<std::mutex> lock(log->mu);
    log->spans.clear();
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"members\":%u,\"storage_calls\":%llu,"
                 "\"storage_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.members,
                 static_cast<unsigned long long>(s.storage_calls),
                 static_cast<unsigned long long>(s.storage_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
