// hydra_perfbench: end-to-end benchmark of the hydra serving stack.
//
//   hydra_perfbench --workload <disk-exact|mem-approx|wire-dup> --seed N
//                   --seconds S --trace <0|1> --work-dir DIR
//
// Generates the workload's series and queries from --seed, sets up a
// HydraServer on 127.0.0.1 over a DSTree index, drives it through
// HydraClient connections for --seconds, and checks every answer against
// an in-process serial Index::Search. The last line of stdout is the
// result object; the line before it describes the run (pinned
// environment, ISA, sample counts). README.md defines every metric.
//
// --trace 0 reports the end-to-end metrics from an unwrapped stack.
// --trace 1 builds the stack over the forwarding wrappers of layers.h,
// measures half the time with recording off and half with it on, runs
// the serial counting pass twice, times the distance kernels, writes the
// span file to the work directory and reports the per-layer metrics.

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "core/metrics.h"
#include "distance/euclidean.h"
#include "distance/simd_dispatch.h"
#include "exec/thread_pool.h"
#include "index/factory.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"
#include "trace.h"
#include "transform/znorm.h"

extern char** environ;

namespace perfbench {
namespace {

using hydra::Dataset;
using hydra::KnnAnswer;
using hydra::QueryCounters;
using hydra::SearchParams;

constexpr size_t kLength = 128;
constexpr size_t kK = 10;
// Set-ups per run: at least kMinSetups, then more until kSetupBudgetS has
// passed, at most kMaxSetups; setup_s is their median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 41;
constexpr double kSetupBudgetS = 1.0;
// Seed stream of every workload's collection. The collection is fixed,
// like a paper's dataset; --seed draws the queries and their order. With
// a per-seed collection, the DSTree's shape moved disk-exact's qps by
// about 10% from seed to seed, more than the program's own noise.
constexpr uint64_t kCollectionStream = 1;
constexpr double kWarmupSeconds = 2.0;
// Series in the in-memory collection of mem-approx and wire-dup: 10 MB.
// With 200,000 (100 MB), a query's reads waited on DRAM, and qps followed
// the shared host's memory speed, up to threefold within an hour.
constexpr size_t kMemorySeries = 20000;
constexpr size_t kCountingQueries = 32;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  size_t num_series = 0;
  size_t distinct_queries = 0;  // templates the load cycles through
  SearchParams params;
  bool on_disk = false;
  size_t page_series = 0;
  size_t pool_pages = 0;
  size_t connections = 2;
  size_t server_concurrency = 1;  // per connection
  size_t batch_window = 1;
  size_t outstanding = 1;  // queries in flight per connection
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.params.k = kK;
  w.params.num_threads = 1;
  w.params.prefetch_depth = SearchParams::kPrefetchOff;
  if (name == "disk-exact") {
    w.num_series = 2500;
    w.distinct_queries = 1024;
    w.params.mode = hydra::SearchMode::kExact;
    w.on_disk = true;
    w.page_series = 16;
    w.pool_pages = 8;
  } else if (name == "mem-approx") {
    w.num_series = kMemorySeries;
    w.distinct_queries = 2048;
    w.params.mode = hydra::SearchMode::kDeltaEpsilon;
    w.params.epsilon = 1.0;
    w.params.delta = 1.0;
  } else if (name == "wire-dup") {
    w.num_series = kMemorySeries;
    w.distinct_queries = 2048;
    w.params.mode = hydra::SearchMode::kNgApproximate;
    w.params.nprobe = 1;
    w.connections = 3;
    w.server_concurrency = 2;
    w.batch_window = 4;
    w.outstanding = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Pinned environment.
// ---------------------------------------------------------------------------

struct PinnedEnv {
  std::vector<std::string> cleared;  // HYDRA_* names found and removed
  std::vector<std::pair<std::string, std::string>> set;
};

// Removes every HYDRA_* variable, then sets the knobs the workloads
// depend on explicitly, so nothing exported by the caller reaches the
// program. Runs before any library code reads the environment.
PinnedEnv PinEnvironment(const Workload& w) {
  PinnedEnv env;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv(*e);
    if (kv.rfind("HYDRA_", 0) == 0) {
      env.cleared.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& name : env.cleared) unsetenv(name.c_str());
  env.set = {{"HYDRA_SIM_IO_DELAY_US", "0"},
             {"HYDRA_PREFETCH", "0"},
             {"HYDRA_BATCH_WINDOW", std::to_string(w.batch_window)}};
  for (const auto& [name, value] : env.set) {
    setenv(name.c_str(), value.c_str(), 1);
  }
  return env;
}

// ---------------------------------------------------------------------------
// Thread placement.
// ---------------------------------------------------------------------------

// The CPUs of the load, split in two: each of the server's query workers
// gets a CPU of its own, and every other thread of the load (client
// connections, the server's socket threads) shares the rest. In twelve
// interleaved runs of mem-approx on 200,000 series, two left to the kernel
// ran 20-40% slower from start to end, and none with this placement.
struct Placement {
  std::vector<int> all;      // the CPUs the process may use
  std::vector<int> workers;  // one per server query worker; empty = unpinned
  std::vector<int> front;    // every other thread of the load
};

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Workers on the last CPUs, the rest in front. Without a CPU to spare
// for the front, nothing is pinned.
Placement PlanPlacement(size_t workers) {
  Placement p;
  p.all = AllowedCpus();
  if (p.all.size() <= workers) return p;
  p.front.assign(p.all.begin(), p.all.end() - workers);
  p.workers.assign(p.all.end() - workers, p.all.end());
  return p;
}

// Restricts the calling thread to `cpus`; threads it starts inherit them.
void PinCallingThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Moves each worker of `pool` to a CPU of its own. One task per worker
// waits at a barrier until all have started, so no worker runs two.
void PinWorkers(hydra::ThreadPool& pool, const std::vector<int>& cpus) {
  if (cpus.size() != pool.num_threads()) return;
  std::mutex mu;
  std::condition_variable cv;
  size_t started = 0;
  size_t pinned = 0;
  for (size_t i = 0; i < cpus.size(); ++i) {
    pool.SubmitTo(i, [&] {
      std::unique_lock<std::mutex> lock(mu);
      const int cpu = cpus[started++];
      cv.notify_all();
      cv.wait(lock, [&] { return started == cpus.size(); });
      PinCallingThread({cpu});
      ++pinned;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pinned == cpus.size(); });
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Z-normalized random walks, the paper's Rand protocol.
Dataset MakeSeries(size_t n, uint64_t seed) {
  hydra::Rng rng(seed);
  Dataset d = hydra::MakeRandomWalk(n, kLength, rng);
  hydra::ZNormalizeDataset(d);
  return d;
}

// Template order of the load: seeded permutations of all templates,
// tiled, so every template recurs once per `templates` queries.
std::vector<uint32_t> TiledOrder(size_t templates, size_t length,
                                 uint64_t seed) {
  hydra::Rng rng(seed);
  std::vector<uint32_t> block(templates);
  std::vector<uint32_t> order;
  order.reserve(length);
  while (order.size() < length) {
    for (size_t i = 0; i < templates; ++i) block[i] = static_cast<uint32_t>(i);
    for (size_t i = templates; i > 1; --i) {
      std::swap(block[i - 1], block[rng.NextUint64(i)]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  order.resize(length);
  return order;
}

// Runs body(q) for every query index, spread over a few threads.
template <typename F>
void ForEachQuery(size_t num_queries, F&& body) {
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t q = w; q < num_queries; q += workers) body(q);
    });
  }
  for (auto& t : threads) t.join();
}

// Exact k-NN of every query by brute force.
std::vector<KnnAnswer> GroundTruth(const Dataset& data,
                                   const Dataset& queries) {
  std::vector<KnnAnswer> out(queries.size());
  ForEachQuery(queries.size(), [&](size_t q) {
    out[q] = hydra::ExactKnn(data, queries.series(q), kK);
  });
  return out;
}

bool SameAnswer(const KnnAnswer& a, const KnnAnswer& b) {
  return a.ids == b.ids && a.distances == b.distances;
}

// ---------------------------------------------------------------------------
// The served stack.
// ---------------------------------------------------------------------------

// Members are destroyed bottom-up: server, then index, then storage.
struct Stack {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<hydra::BufferManager> pool;
  std::unique_ptr<hydra::InMemoryProvider> memory;
  std::unique_ptr<TracedProvider> traced_provider;
  hydra::SeriesProvider* provider = nullptr;
  std::unique_ptr<hydra::Index> index;
  std::unique_ptr<TracedIndex> traced_index;
  std::unique_ptr<hydra::ThreadPool> workers;  // the server's query threads
  std::unique_ptr<hydra::HydraServer> server;
};

hydra::BuildOptions IndexOptions() {
  hydra::BuildOptions build;
  build.method = "dstree";
  return build;
}

// Write the series file, open storage, build the index, start the
// server: the work setup_s times. `traced` puts the layer wrappers in.
hydra::Result<std::unique_ptr<Stack>> SetUp(const Dataset& generated,
                                            const Workload& w,
                                            const Placement& placement,
                                            const std::string& path,
                                            bool traced) {
  auto s = std::make_unique<Stack>();
  HYDRA_RETURN_IF_ERROR(hydra::WriteSeriesFile(path, generated));
  {
    HYDRA_ASSIGN_OR_RETURN(auto reader, hydra::SeriesFileReader::Open(path));
    HYDRA_ASSIGN_OR_RETURN(Dataset read, reader->ReadAll(nullptr));
    s->data = std::make_unique<Dataset>(std::move(read));
  }
  if (w.on_disk) {
    HYDRA_ASSIGN_OR_RETURN(
        s->pool, hydra::BufferManager::Open(path, w.page_series, w.pool_pages));
    s->provider = s->pool.get();
  } else {
    s->memory = std::make_unique<hydra::InMemoryProvider>(s->data.get());
    s->provider = s->memory.get();
  }
  if (traced) {
    s->traced_provider = std::make_unique<TracedProvider>(s->provider);
    s->provider = s->traced_provider.get();
  }
  HYDRA_ASSIGN_OR_RETURN(
      s->index, hydra::BuildIndex(*s->data, s->provider, IndexOptions()));
  const hydra::Index* served = s->index.get();
  if (traced) {
    s->traced_index = std::make_unique<TracedIndex>(*s->index);
    served = s->traced_index.get();
  }
  // One worker per query the server may run at once. On the 4-worker
  // process-wide pool, mem-approx on 200,000 series served about 9% fewer
  // queries/s in interleaved runs.
  s->workers = std::make_unique<hydra::ThreadPool>(w.connections *
                                                   w.server_concurrency);
  PinWorkers(*s->workers, placement.workers);
  hydra::ServerOptions options;
  options.serving.concurrency = w.server_concurrency;
  options.serving.batch_window = w.batch_window;
  options.serving.pool = s->workers.get();
  // The server's socket threads inherit the CPUs of the thread that
  // starts it.
  if (!placement.workers.empty()) PinCallingThread(placement.front);
  auto server = hydra::HydraServer::Start(*served, s->provider, options);
  PinCallingThread(placement.all);
  HYDRA_ASSIGN_OR_RETURN(s->server, std::move(server));
  return s;
}

// The answer a serial in-process Index::Search gives for every query.
// A disk-resident collection is searched through an in-memory twin of its
// index: the same series and the same build, whose answers the storage
// contract makes bit-identical to the disk path's at a fraction of the
// cost. Each search runs with the workload's own params (num_threads 1);
// the queries are spread over threads only to save time, which the
// index's determinism contract makes invisible in the answers.
hydra::Result<std::vector<KnnAnswer>> ReferenceAnswers(
    const Stack& s, const Dataset& queries, const SearchParams& params) {
  hydra::InMemoryProvider memory(s.data.get());
  std::unique_ptr<hydra::Index> twin;
  const hydra::Index* index = s.index.get();
  if (s.pool != nullptr) {
    HYDRA_ASSIGN_OR_RETURN(twin,
                           hydra::BuildIndex(*s.data, &memory, IndexOptions()));
    index = twin.get();
  }
  std::vector<hydra::Result<KnnAnswer>> answers(
      queries.size(), hydra::Status::Internal("not run"));
  ForEachQuery(queries.size(), [&](size_t q) {
    answers[q] = index->Search(queries.series(q), params, nullptr);
  });
  std::vector<KnnAnswer> out;
  for (auto& answer : answers) {
    if (!answer.ok()) return answer.status();
    out.push_back(std::move(answer).value());
  }
  return out;
}

// Writes the series file's dirty pages back now, so the kernel's delayed
// writeback does not land inside the measured window.
void FlushToDisk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Load.
// ---------------------------------------------------------------------------

struct Expected {
  const Dataset* queries = nullptr;
  const std::vector<KnnAnswer>* reference = nullptr;  // serial Search
  const std::vector<KnnAnswer>* truth = nullptr;      // exact k-NN
};

struct LoadResult {
  // Per OK query, as floats to keep the benchmark's own footprint small:
  // client-observed latency, and completion time in seconds since
  // start_ns.
  std::vector<float> latency_ms;
  std::vector<float> done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // typed error, refused submission, lost reply
  uint64_t mismatched = 0;  // OK answers that differ from the reference
  uint64_t ok = 0;
  double recall_sum = 0;
  double server_seconds_sum = 0;  // ServedQuery::seconds of OK queries
  uint64_t coalesced = 0;         // ServingStats, summed over connections
  uint64_t start_ns = 0;
  uint64_t last_done_ns = 0;
  std::vector<std::string> errors;

  double WallSeconds() const {
    return last_done_ns > start_ns ? (last_done_ns - start_ns) * 1e-9 : 0;
  }
  double Qps() const {
    const double wall = WallSeconds();
    return wall > 0 ? ok / wall : 0;
  }
  // Adds o's counts; the samples stay with o.
  void Merge(const LoadResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    ok += o.ok;
    recall_sum += o.recall_sum;
    server_seconds_sum += o.server_seconds_sum;
    coalesced += o.coalesced;
    last_done_ns = std::max(last_done_ns, o.last_done_ns);
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

uint64_t RequestId(size_t connection, uint64_t ticket) {
  return (static_cast<uint64_t>(connection + 1) << 40) | ticket;
}

// Scores one completed query against the expected answers.
void Score(const std::optional<hydra::ServedQuery>& served, uint32_t tmpl,
           size_t connection, const Expected& e, uint64_t begin_ns,
           uint64_t done_ns, LoadResult* r) {
  if (!served.has_value() || !served->answer.ok()) {
    ++r->failed;
    return;
  }
  const KnnAnswer& answer = served->answer.value();
  if (!SameAnswer(answer, (*e.reference)[tmpl])) ++r->mismatched;
  ++r->ok;
  r->recall_sum += hydra::RecallAt((*e.truth)[tmpl], answer, kK);
  r->server_seconds_sum += served->seconds;
  r->latency_ms.push_back(static_cast<float>((done_ns - begin_ns) * 1e-6));
  r->done_s.push_back(static_cast<float>((done_ns - r->start_ns) * 1e-9));
  r->last_done_ns = std::max(r->last_done_ns, done_ns);
  if (Enabled()) {
    RecordSpan("net.query", RequestId(connection, served->ticket.id()),
               begin_ns, done_ns);
  }
}

std::unique_ptr<hydra::HydraClient> Connect(uint16_t port, LoadResult* r) {
  auto client = hydra::HydraClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    r->errors.push_back("connect: " + client.status().ToString());
    return nullptr;
  }
  return std::move(client).value();
}

void AddCoalesced(hydra::HydraClient& client, LoadResult* r) {
  auto stats = client.TryStats();
  if (stats.ok()) {
    r->coalesced += stats.value().coalesced_queries;
  } else {
    r->errors.push_back("stats: " + stats.status().ToString());
  }
}

// Closed loop: each connection keeps `outstanding` queries in flight and
// sends the next one when the oldest has come back. Replies arrive in
// submission order, so each is timed from its own Submit.
LoadResult RunClosedLoop(uint16_t port, const Workload& w,
                         const Placement& placement, const Expected& e,
                         double seconds, uint64_t order_seed) {
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<LoadResult> per(w.connections);
  for (LoadResult& r : per) r.start_ns = start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& r = per[c];
      if (!placement.workers.empty()) PinCallingThread(placement.front);
      auto client = Connect(port, &r);
      if (client == nullptr) return;
      const std::vector<uint32_t> order = TiledOrder(
          w.distinct_queries, w.distinct_queries * 4,
          StreamSeed(order_seed, c));
      std::deque<std::pair<uint64_t, uint32_t>> sent;  // Submit time, template
      size_t next = 0;
      bool refused = false;
      const auto send = [&] {
        const uint32_t tmpl = order[next++ % order.size()];
        ++r.attempted;
        const uint64_t t0 = NowNs();
        if (!client->Submit(e.queries->series(tmpl), w.params).valid()) {
          ++r.failed;
          r.errors.push_back("submission refused");
          refused = true;
          return;
        }
        sent.emplace_back(t0, tmpl);
      };
      while (!refused && sent.size() < w.outstanding) send();
      while (!sent.empty()) {
        auto served = client->Next();
        const uint64_t done = NowNs();
        const auto [t0, tmpl] = sent.front();
        sent.pop_front();
        Score(served, tmpl, c, e, t0, done, &r);
        if (!refused && done < end) send();
      }
      AddCoalesced(*client, &r);
      client->Finish();
      while (client->Next().has_value()) {
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult total;
  total.start_ns = start;
  for (LoadResult& r : per) {
    total.Merge(r);
    total.latency_ms.insert(total.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
    total.done_s.insert(total.done_s.end(), r.done_s.begin(), r.done_s.end());
    r = LoadResult();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Serial counting pass and kernel timing (traced run).
// ---------------------------------------------------------------------------

// One connection, one query at a time over the first templates, starting
// from an empty pool whose reader position is reset, so every count is a
// function of the seed alone.
hydra::Result<std::vector<QueryCounters>> CountingPass(Stack& s,
                                                       const Workload& w,
                                                       const Expected& e) {
  if (s.pool != nullptr) {
    s.pool->DropCache();
    // Read page 0 once so the first counted read's "random" verdict does
    // not depend on where the previous load happened to leave the file.
    s.pool->PinSeries(0, nullptr).Release();
    s.pool->DropCache();
  }
  HYDRA_ASSIGN_OR_RETURN(auto client,
                         hydra::HydraClient::Connect("127.0.0.1",
                                                     s.server->port()));
  std::vector<QueryCounters> out;
  const size_t n = std::min(kCountingQueries, w.distinct_queries);
  for (size_t t = 0; t < n; ++t) {
    if (!client->Submit(e.queries->series(t), w.params).valid()) {
      return hydra::Status::Unavailable("counting pass: submission refused");
    }
    auto served = client->Next();
    if (!served.has_value() || !served->answer.ok()) {
      return hydra::Status::Internal("counting pass: query failed");
    }
    if (!SameAnswer(served->answer.value(), (*e.reference)[t])) {
      return hydra::Status::Internal("counting pass: answer mismatch");
    }
    out.push_back(served->counters);
  }
  client->Finish();
  return out;
}

bool SameCounts(const std::vector<QueryCounters>& a,
                const std::vector<QueryCounters>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(QueryCounters)) != 0) return false;
  }
  return true;
}

// FNV-1a over the raw counters, printed so that runs of one seed can be
// compared across processes.
uint64_t CountsDigest(const std::vector<QueryCounters>& counts) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const QueryCounters& c : counts) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&c);
    for (size_t i = 0; i < sizeof(QueryCounters); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

// Consumes the timed kernels' results so the loops cannot be elided.
volatile double g_kernel_sink = 0;

// Nanoseconds per call of the public distance kernels at the workload's
// series length, over the first series of the collection. The early-
// abandon threshold is the k-th smallest full distance, as a leaf scan's
// best-so-far would be.
std::pair<double, double> KernelNsPerEval(const Dataset& data) {
  const size_t n = std::min<size_t>(4096, data.size() - 1);
  const auto query = data.series(0);
  std::vector<double> full(n);
  for (size_t i = 0; i < n; ++i) {
    full[i] = hydra::SquaredEuclidean(query, data.series(i + 1));
  }
  std::nth_element(full.begin(), full.begin() + kK, full.end());
  const double threshold = full[kK];

  auto time_loop = [&](auto&& kernel) {
    double sink = 0;
    uint64_t evals = 0;
    const uint64_t start = NowNs();
    const uint64_t budget = 150'000'000;  // 0.15 s
    while (NowNs() - start < budget) {
      for (size_t i = 0; i < n; ++i) sink += kernel(data.series(i + 1));
      evals += n;
    }
    g_kernel_sink = sink;
    return static_cast<double>(NowNs() - start) / evals;
  };
  const double ns_full = time_loop([&](std::span<const float> c) {
    return hydra::SquaredEuclidean(query, c);
  });
  const double ns_ea = time_loop([&](std::span<const float> c) {
    return hydra::SquaredEuclideanEarlyAbandon(query, c, threshold);
  });
  return {ns_full, ns_ea};
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Linear-interpolated quantile (the median for q = 0.5).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Throughput and median latency of a load, over equal time slices of its
// duration. A slice lasts at least kMinSliceSeconds and holds at least
// kMinSliceSamples completions; a load too short for two such slices is
// reported whole. qps and p50 are the medians over slices, so a brief
// host stall moves one slice, not the run. p99 is the whole load's: every
// OK query of the measured window counts, stalls included.
constexpr size_t kMinSliceSamples = 1000;
constexpr double kMinSliceSeconds = 0.1;

struct SliceStats {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::vector<double> slice_p99_ms;  // for diagnosis only
};

SliceStats Sliced(const LoadResult& r) {
  const size_t n = r.latency_ms.size();
  const double wall = r.WallSeconds();
  if (n == 0 || wall <= 0) return {};
  const size_t count = std::max<size_t>(
      1, std::min<size_t>(n / kMinSliceSamples,
                          static_cast<size_t>(wall / kMinSliceSeconds)));
  std::vector<std::vector<float>> slices(count);
  for (size_t i = 0; i < n; ++i) {
    const double at_s = r.done_s[i];
    const size_t slice =
        std::min(count - 1, static_cast<size_t>(at_s / wall * count));
    slices[slice].push_back(r.latency_ms[i]);
  }
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& slice : slices) {
    qps.push_back(slice.size() / (wall / count));
    p50.push_back(Percentile(slice, 0.50));
    p99.push_back(Percentile(slice, 0.99));
  }
  return {Median(qps), Median(p50), Percentile(r.latency_ms, 0.99), p99};
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Anonymous memory the process holds in transparent huge pages, which
// shows whether run.py's malloc tunable took effect.
double AnonHugeMb() {
  std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "AnonHugePages: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string JsonArray(const std::vector<T>& values, F&& encode) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += encode(values[i]);
  }
  return out + "]";
}

// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  void Add(const std::string& name, std::string json) {
    fields_.emplace_back(name, std::move(json));
  }
  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// The result line's metric map: name -> {"value", "unit"}.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    fields_.Add(name, "{\"value\": " + JsonNumber(value) +
                          ", \"unit\": " + JsonString(unit) + "}");
  }
  std::string Str() const { return fields_.Str(); }

 private:
  JsonObject fields_;
};

double Ratio(double num, double den, double if_empty = 0) {
  return den > 0 ? num / den : if_empty;
}

// Per-layer figures derived from the spans of the traced phase.
struct SpanSummary {
  double client_ms_mean = 0;
  double served = 0;  // queries served by index spans
  double index_ns = 0;
  double storage_ns = 0;
  double storage_calls = 0;
  std::vector<double> service_ms;  // per query; a batch is split evenly
  std::vector<double> self_ms;
  double overlap_max = 0;
  double overlap_mean = 0;  // time-average while at least one is open
};

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary s;
  double client_ns = 0;
  uint64_t clients = 0;
  std::vector<std::pair<uint64_t, int>> events;
  for (const Span& span : spans) {
    const double dur = static_cast<double>(span.end_ns - span.start_ns);
    if (std::strcmp(span.name, "net.query") == 0) {
      client_ns += dur;
      ++clients;
      continue;
    }
    s.served += span.members;
    s.index_ns += dur;
    s.storage_ns += static_cast<double>(span.storage_ns);
    s.storage_calls += static_cast<double>(span.storage_calls);
    for (uint32_t m = 0; m < span.members; ++m) {
      s.service_ms.push_back(dur * 1e-6 / span.members);
      s.self_ms.push_back((dur - span.storage_ns) * 1e-6 / span.members);
    }
    events.emplace_back(span.start_ns, +1);
    events.emplace_back(span.end_ns, -1);
  }
  s.client_ms_mean = Ratio(client_ns * 1e-6, clients);
  // Ends sort before starts at equal timestamps: touching spans do not
  // overlap.
  std::sort(events.begin(), events.end());
  int open = 0;
  double busy = 0;
  double weighted = 0;
  uint64_t prev = events.empty() ? 0 : events.front().first;
  for (const auto& [t, delta] : events) {
    if (open > 0) {
      busy += static_cast<double>(t - prev);
      weighted += static_cast<double>(t - prev) * open;
    }
    open += delta;
    s.overlap_max = std::max<double>(s.overlap_max, open);
    prev = t;
  }
  s.overlap_mean = Ratio(weighted, busy);
  return s;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  if (argc % 2 != 1) return std::nullopt;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

// Everything a measurement phase needs.
struct Bench {
  Bench(const Args& a, const Workload& wl, const Placement& p, Stack& s,
        const Expected& e, uint64_t seed)
      : args(a), w(wl), placement(p), stack(s), expected(e), order_seed(seed) {}

  const Args& args;
  const Workload& w;
  const Placement& placement;
  Stack& stack;
  const Expected& expected;
  uint64_t order_seed;
  LoadResult all;  // every query of the run, warm-up included
  std::vector<std::string> problems;  // any one fails the run
  std::vector<std::string> warnings;
  JsonObject info;

  LoadResult Load(double seconds) {
    LoadResult r = RunClosedLoop(stack.server->port(), w, placement, expected,
                                 seconds, order_seed);
    all.Merge(r);
    return r;
  }
};

// `peak_rss_mb` is read when the warm-up has ended: the program has been
// set up and has served the load, but the measured load's per-query
// samples, about 5 MB on mem-approx and rounded to 2 MB huge pages, are
// not yet held. Read after the load, it moved 40-45 MB from run to run.
Metrics EndToEnd(Bench& b, const std::vector<double>& setup_s,
                 double peak_rss_mb) {
  const LoadResult r = b.Load(b.args.seconds);
  const SliceStats stats = Sliced(r);
  Metrics m;
  m.Add("qps", stats.qps, "queries/s");
  m.Add("latency_p50_ms", stats.p50_ms, "ms");
  m.Add("latency_p99_ms", stats.p99_ms, "ms");
  m.Add("recall", Ratio(r.recall_sum, r.ok), "fraction");
  m.Add("ok_frac", Ratio(r.ok, r.attempted), "fraction");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  b.info.Add("completed", std::to_string(r.ok));
  b.info.Add("anon_huge_mb", JsonNumber(AnonHugeMb()));
  b.info.Add("slice_p99_ms", JsonArray(stats.slice_p99_ms, JsonNumber));
  if (r.ok < kMinSliceSamples) {
    b.warnings.push_back("fewer than 1000 completed queries: p99 is thin");
  }
  return m;
}

Metrics PerLayer(Bench& b) {
  hydra::BufferManager* pool = b.stack.pool.get();
  SetEnabled(false);
  const LoadResult plain = b.Load(b.args.seconds / 2);

  ClearSpans();
  const uint64_t hits0 = pool != nullptr ? pool->cache_hits() : 0;
  const uint64_t misses0 = pool != nullptr ? pool->cache_misses() : 0;
  SetEnabled(true);
  const LoadResult traced = b.Load(b.args.seconds / 2);
  SetEnabled(false);
  const double hits = pool != nullptr ? pool->cache_hits() - hits0 : 0;
  const double misses = pool != nullptr ? pool->cache_misses() - misses0 : 0;
  const std::vector<Span> spans = CollectSpans();
  // One file per workload, replaced by each traced run, so repeated runs
  // do not pile up span files.
  const std::string span_path =
      b.args.work_dir + "/spans-" + b.w.name + ".jsonl";
  if (!WriteSpans(span_path, spans)) {
    b.problems.push_back("cannot write " + span_path);
  }
  const SpanSummary sum = Summarize(spans);

  QueryCounters counts;
  double counted = 0;
  auto first = CountingPass(b.stack, b.w, b.expected);
  auto second = CountingPass(b.stack, b.w, b.expected);
  if (!first.ok() || !second.ok()) {
    b.problems.push_back(
        "counting pass: " +
        (first.ok() ? second.status() : first.status()).ToString());
  } else {
    if (!SameCounts(first.value(), second.value())) {
      b.problems.push_back("counting pass counts did not repeat");
    }
    for (const QueryCounters& c : first.value()) counts += c;
    counted = static_cast<double>(first.value().size());
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(CountsDigest(first.value())));
    b.info.Add("counts_digest", JsonString(digest));
  }
  const auto per_q = [&](uint64_t v) { return Ratio(v, counted); };
  const auto [ns_full, ns_ea] = KernelNsPerEval(*b.stack.data);

  const double index_ms = Ratio(sum.index_ns * 1e-6, sum.served);
  const double server_ms = Ratio(traced.server_seconds_sum * 1e3, traced.ok);
  const double evals = counts.full_distances + counts.abandoned_distances;
  Metrics m;
  m.Add("net.outside_index_ms", sum.client_ms_mean - index_ms, "ms");
  m.Add("net.wire_ms", sum.client_ms_mean - server_ms, "ms");
  m.Add("exec.queue_ms", server_ms - index_ms, "ms");
  m.Add("exec.index_overlap.max", sum.overlap_max, "count");
  m.Add("exec.index_overlap.mean", sum.overlap_mean, "count");
  m.Add("exec.coalesced_frac", Ratio(traced.coalesced, traced.ok),
        "fraction");
  m.Add("index.service_ms.p50", Percentile(sum.service_ms, 0.50), "ms");
  m.Add("index.service_ms.p99", Percentile(sum.service_ms, 0.99), "ms");
  m.Add("index.self_ms.p50", Percentile(sum.self_ms, 0.50), "ms");
  m.Add("index.leaves_per_q", per_q(counts.leaves_visited), "count");
  m.Add("index.lb_per_q", per_q(counts.lb_distances), "count");
  m.Add("index.nodes_pushed_per_q", per_q(counts.nodes_pushed), "count");
  m.Add("distance.full_per_q", per_q(counts.full_distances), "count");
  m.Add("distance.abandoned_per_q", per_q(counts.abandoned_distances),
        "count");
  m.Add("distance.abandon_rate", Ratio(counts.abandoned_distances, evals),
        "fraction");
  m.Add("distance.ns_per_eval", ns_full, "ns");
  m.Add("distance.ea_ns_per_eval", ns_ea, "ns");
  m.Add("storage.fetch_ms_per_q", Ratio(sum.storage_ns * 1e-6, sum.served),
        "ms");
  m.Add("storage.fetch_calls_per_q", Ratio(sum.storage_calls, sum.served),
        "count");
  m.Add("storage.fetch_share", Ratio(sum.storage_ns, sum.index_ns),
        "fraction");
  // An in-memory provider has no pool: every fetch is resident.
  m.Add("storage.hit_rate", Ratio(hits, hits + misses, 1.0), "fraction");
  m.Add("storage.random_ios_per_q", per_q(counts.random_ios), "count");
  m.Add("storage.bytes_read_per_q", per_q(counts.bytes_read), "bytes");
  m.Add("storage.io_retries",
        pool != nullptr ? static_cast<double>(pool->io_retries()) : 0,
        "count");
  m.Add("trace.overhead_frac", 1.0 - Ratio(traced.Qps(), plain.Qps(), 1.0),
        "fraction");
  b.info.Add("completed", std::to_string(traced.ok));
  b.info.Add("span_file", JsonString(span_path));
  b.info.Add("spans", std::to_string(spans.size()));
  b.info.Add("untraced_qps", JsonNumber(plain.Qps()));
  b.info.Add("traced_qps", JsonNumber(traced.Qps()));
  b.info.Add("ns_per_tick", JsonNumber(NsPerTick()));
  return m;
}

// The correctness gate over every query the run made.
void CheckGate(Bench& b) {
  const LoadResult& all = b.all;
  if (all.mismatched > 0) {
    b.problems.push_back(std::to_string(all.mismatched) +
                         " answers differ from serial Index::Search");
  }
  if (b.w.params.mode == hydra::SearchMode::kExact &&
      all.recall_sum != static_cast<double>(all.ok)) {
    b.problems.push_back("exact search recall below 1");
  }
  if (b.stack.pool != nullptr && b.stack.pool->io_retries() != 0) {
    b.problems.push_back("storage retried reads");
  }
  if (!all.errors.empty()) b.problems.push_back(all.errors.front());
  if (all.ok == 0) b.problems.push_back("no query answered");
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "hydra_perfbench: %s\n", why.c_str());
  return 1;
}

double SecondsSince(uint64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

int Run(const Args& args) {
  const std::optional<Workload> workload =
      MakeWorkload(args.workload);
  if (!workload.has_value()) return Fail("unknown workload " + args.workload);
  const Workload& w = *workload;
  const PinnedEnv env = PinEnvironment(w);
  const Placement placement =
      PlanPlacement(w.connections * w.server_concurrency);

  // Inputs: the fixed collection, and query templates from the seed.
  const Dataset generated =
      MakeSeries(w.num_series, StreamSeed(0, kCollectionStream));
  const Dataset queries =
      MakeSeries(w.distinct_queries, StreamSeed(args.seed, 2));
  const std::string series_path =
      args.work_dir + "/" + w.name + "-" + std::to_string(args.seed) + ".hsf";

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const uint64_t setups_t0 = NowNs();
  const size_t min_setups = args.trace ? 1 : kMinSetups;
  const size_t max_setups = args.trace ? 1 : kMaxSetups;
  while (setup_s.size() < min_setups ||
         (setup_s.size() < max_setups &&
          SecondsSince(setups_t0) < kSetupBudgetS)) {
    stack.reset();
    const uint64_t t0 = NowNs();
    auto built = SetUp(generated, w, placement, series_path, args.trace);
    if (!built.ok()) return Fail("setup: " + built.status().ToString());
    setup_s.push_back(SecondsSince(t0));
    stack = std::move(built).value();
  }

  FlushToDisk(series_path);

  // Expected answers: serial in-process search and exact ground truth.
  const uint64_t reference_t0 = NowNs();
  auto reference = ReferenceAnswers(*stack, queries, w.params);
  if (!reference.ok()) {
    return Fail("reference search: " + reference.status().ToString());
  }
  const double reference_s = SecondsSince(reference_t0);
  const uint64_t truth_t0 = NowNs();
  const std::vector<KnnAnswer> truth = GroundTruth(*stack->data, queries);
  const double truth_s = SecondsSince(truth_t0);
  const Expected expected{&queries, &reference.value(), &truth};

  Bench b(args, w, placement, *stack, expected, StreamSeed(args.seed, 3));
  b.info.Add("workload", JsonString(w.name));
  b.info.Add("seed", std::to_string(args.seed));
  b.info.Add("seconds", JsonNumber(args.seconds));
  b.info.Add("trace", args.trace ? "1" : "0");
  JsonObject pinned;
  for (const auto& [name, value] : env.set) {
    pinned.Add(name, JsonString(getenv(name.c_str())));
  }
  b.info.Add("env", pinned.Str());
  b.info.Add("env_cleared", JsonArray(env.cleared, JsonString));
  b.info.Add("simd", JsonString(hydra::ActiveKernels().name));
  b.info.Add("nproc", std::to_string(std::thread::hardware_concurrency()));
  b.info.Add("pool_threads", std::to_string(stack->workers->num_threads()));
  b.info.Add("worker_cpus", JsonArray(placement.workers, JsonNumber));
  b.info.Add("front_cpus", JsonArray(placement.front, JsonNumber));
  const char* tunables = getenv("GLIBC_TUNABLES");
  b.info.Add("glibc_tunables", JsonString(tunables != nullptr ? tunables : ""));
#if defined(__clang__)
  b.info.Add("compiler", JsonString("clang " __clang_version__));
#elif defined(__GNUC__)
  b.info.Add("compiler", JsonString("gcc " __VERSION__));
#endif
  b.info.Add("series", std::to_string(w.num_series));
  b.info.Add("templates", std::to_string(w.distinct_queries));
  b.info.Add("connections", std::to_string(w.connections));
  b.info.Add("outstanding", std::to_string(w.outstanding));
  b.info.Add("setup_s", JsonArray(setup_s, JsonNumber));
  b.info.Add("reference_s", JsonNumber(reference_s));
  b.info.Add("truth_s", JsonNumber(truth_s));

  b.Load(kWarmupSeconds);
  const double peak_rss_mb = PeakRssMb();
  b.order_seed = StreamSeed(args.seed, 4);
  const Metrics metrics =
      args.trace ? PerLayer(b) : EndToEnd(b, setup_s, peak_rss_mb);
  CheckGate(b);
  b.info.Add("problems", JsonArray(b.problems, JsonString));
  b.info.Add("warnings", JsonArray(b.warnings, JsonString));

  std::printf("{\"info\": %s}\n", b.info.Str().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      b.problems.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, b.all.attempted)),
      static_cast<unsigned long long>(b.all.failed), metrics.Str().c_str());
  std::fflush(stdout);
  stack.reset();
  std::remove(series_path.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: hydra_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return perfbench::Run(*args);
}
