#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call at a layer boundary: its name, start, end, the
// span that encloses it on the same thread (its parent) and the request it
// belongs to. Spans are appended to a per-thread log and collected when
// the run ends; nothing is shared between threads on the recording path
// except the per-log mutex taken once per closed span.
//
// Storage calls are too frequent to keep one span each (an in-memory
// DSTree query makes thousands of provider calls), so they are
// accumulated in thread-local counters and folded into the enclosing
// span when it closes: every span carries the count and the total time
// of the storage calls made inside it on its own thread. A layer's self
// time is its span's duration minus that child time.
//
// Recording is off until SetEnabled(true); while off, every hook costs
// one relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cheapest monotonic counter for the per-call storage timing: the TSC on
// x86, nanoseconds elsewhere. The fence keeps the read from being
// executed ahead of earlier instructions, which would charge the tail of
// the preceding distance kernel to the storage call.
inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  return __rdtsc();
#else
  return NowNs();
#endif
}

struct Span {
  const char* name = "";  // static string, e.g. "index.search"
  uint64_t id = 0;        // (thread << 32) | per-thread sequence
  uint64_t parent = 0;    // enclosing span on the same thread; 0 = none
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t members = 1;  // queries a batch span serves
  uint64_t storage_calls = 0;
  uint64_t storage_ns = 0;
};

namespace internal {
extern std::atomic<bool> g_enabled;
struct ThreadLog;  // a thread's recorded spans
ThreadLog& Local();
// Running totals of the calling thread's timed storage calls.
inline thread_local uint64_t t_storage_calls = 0;
inline thread_local uint64_t t_storage_ticks = 0;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
// Turning recording on the first time calibrates Ticks() against the
// steady clock (about 20 ms).
void SetEnabled(bool on);
// Nanoseconds per Ticks() unit, as calibrated (1 before calibration).
double NsPerTick();

// Times one call of a layer boundary as a span on the calling thread.
// `request_id` 0 asks for a fresh per-thread id.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request_id, uint32_t members);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  internal::ThreadLog* log_;
  Span span_;
  uint64_t saved_open_ = 0;
  uint64_t storage_calls0_ = 0;
  uint64_t storage_ticks0_ = 0;
};

// Records a span whose interval was measured by the caller (the client
// side, from a query's Submit to its reply).
void RecordSpan(const char* name, uint64_t request_id, uint64_t start_ns,
                uint64_t end_ns);

// Runs `call` (which returns by value) and, when recording, charges its
// duration to the calling thread's storage accumulator.
template <typename F>
auto TimeStorage(F&& call) {
  if (!Enabled()) return call();
  const uint64_t t0 = Ticks();
  auto result = call();
  internal::t_storage_ticks += Ticks() - t0;
  ++internal::t_storage_calls;
  return result;
}

// Every span recorded since the last Clear, from all threads.
std::vector<Span> CollectSpans();
void ClearSpans();

// Writes `spans` as JSON lines. False when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
