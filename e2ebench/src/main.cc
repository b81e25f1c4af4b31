// e2e_bench: end-to-end table search, from a query table to ranked table
// ids, through the deployed stack: parse -> sketch -> embed -> LakeClient
// -> LakeServer (batcher) -> in-process or distributed scan -> Fig 6 rank.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Workloads (why each exists is in README.md):
//   csv_query         500-table lake; 4 clients each parse, sketch and
//                     embed a CSV query table, then query over the wire.
//   vector_scan       6,000-table lake; 4 clients send precomputed query
//                     embeddings, so the scan, rank and server do the work.
//   churn             2,000-table lake; 3 embedding clients beside an
//                     open-loop writer (20 mutations/s, COMPACT every 100).
//   distributed_scan  vector_scan's lake and traffic, served through a
//                     DistributedLakeIndex over 4 forked shard workers.
//
// Every answer is checked against an exact in-process flat reference; the
// last line of stdout is one JSON object with the run's metrics.
#include <malloc.h>
#include <time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "search/distance_kernels.h"
#include "search/sharded_lake_index.h"
#include "server/backend.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "server/shard_worker.h"
#include "stats.h"
#include "table/csv.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

using namespace tsfm;
using Ids = std::vector<std::string>;
using Columns = std::vector<std::vector<float>>;

constexpr size_t kShards = 4;
constexpr size_t kK = 10;
constexpr size_t kQueryTables = 256;
// Query figures are medians over this many equal slices of the window.
constexpr size_t kSlices = 10;
constexpr size_t kBuildThreads = 4;
constexpr double kWarmupSeconds = 0.5;
// Churn mutations per second. Under the three query clients an ADD_TABLE
// waits ~11 ms for the index's epoch lock (4-vCPU VM), so at 100/s and at
// 50/s the writer fell seconds behind its schedule and latency from the
// due time measured the backlog, not the system. At 20/s it keeps up, and
// a 15 s run still holds 300 mutations: 15 beyond their p95.
constexpr double kWriterRate = 20.0;
constexpr size_t kCompactEvery = 100;  // churn mutations between COMPACTs
// Churn queries whose lake state is known exactly (no mutation in flight
// while they ran) are re-checked against a replayed reference; one in
// kChurnCheckEvery of them, to bound the replay's cost.
constexpr size_t kChurnCheckEvery = 8;

struct Workload {
  const char* name;
  size_t lake_tables;
  size_t setup_reps;  // at least 1.5 s of set-up, and at least 3
  size_t clients;
  bool csv_clients;  // clients parse, sketch and embed CSV text
  bool churn;        // open-loop writer beside the clients
  bool distributed;  // shard worker processes behind a coordinator
};

constexpr Workload kWorkloads[] = {
    {"csv_query", 500, 15, 4, true, false, false},
    {"vector_scan", 6000, 3, 4, false, false, false},
    {"churn", 2000, 5, 3, false, true, false},
    {"distributed_scan", 6000, 3, 4, false, false, true},
};

// Shard worker processes of the live deployment, so that a fatal error
// on any thread still stops them before the benchmark exits.
std::mutex g_workers_mu;
std::vector<pid_t> g_workers;

void SetWorkers(std::vector<pid_t> pids) {
  std::lock_guard<std::mutex> lock(g_workers_mu);
  g_workers = std::move(pids);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  {
    std::lock_guard<std::mutex> lock(g_workers_mu);
    for (pid_t pid : g_workers) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  std::fflush(nullptr);
  std::_Exit(1);
}

template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- layers

// Columns embedded while tracing was on.
std::atomic<uint64_t> g_columns_embedded{0};

// Parse + infer, sketch, embed: the client-side stages of a CSV query,
// each in its own span.
Columns EmbedStages(const ModelStack& stack, const std::string& csv,
                    uint64_t request) {
  Table table;
  {
    ScopedSpan span("table.parse", request);
    table = Check(ParseCsv(csv), "parse generated CSV");
    table.InferTypes();
  }
  TableSketch sketch;
  {
    ScopedSpan span("sketch.build", request);
    sketch = BuildTableSketch(table, LakeSketchOptions());
  }
  ScopedSpan span("core.embed", request);
  if (Tracer::Get().enabled()) g_columns_embedded.fetch_add(sketch.columns.size());
  return stack.embedder.ColumnEmbeddings(sketch);
}

/// \brief LakeBackend wrapper that records a span around every call the
/// server makes into the search layer, plus the work each batch does.
///
/// Batch spans have no parent: the batcher runs them on its own threads
/// and hides which requests a batch serves.
class TimingBackend final : public server::LakeBackend {
 public:
  explicit TimingBackend(std::unique_ptr<server::LakeBackend> inner)
      : inner_(std::move(inner)) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_tables() const override { return inner_->num_tables(); }
  size_t num_columns() const override { return inner_->num_columns(); }
  const char* kind() const override { return inner_->kind(); }

  Result<std::vector<Ids>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const override {
    ScopedSpan span("search.batch", 0);
    Count(queries.size(), queries.size());
    return inner_->QueryJoinableBatch(queries, k, pool);
  }
  Result<std::vector<Ids>> QueryUnionableBatch(
      const std::vector<Columns>& queries, size_t k,
      ThreadPool* pool) const override {
    ScopedSpan span("search.batch", 0);
    size_t columns = 0;
    for (const Columns& q : queries) columns += q.size();
    Count(queries.size(), columns);
    return inner_->QueryUnionableBatch(queries, k, pool);
  }
  Result<std::vector<std::vector<server::ShardHit>>> ShardQuery(
      const Columns& columns, size_t m, ThreadPool* pool) const override {
    return inner_->ShardQuery(columns, m, pool);
  }
  Result<Ids> TableIds() const override { return inner_->TableIds(); }
  server::ShardHealth Health() const override { return inner_->Health(); }
  Status AddTable(const std::string& table_id, const Columns& columns) override {
    ScopedSpan span("search.add", 0);
    return inner_->AddTable(table_id, columns);
  }
  Status RemoveTable(const std::string& table_id) override {
    ScopedSpan span("search.remove", 0);
    return inner_->RemoveTable(table_id);
  }
  Status Compact(ThreadPool* pool) override {
    ScopedSpan span("search.compact", 0);
    return inner_->Compact(pool);
  }
  ChurnCounters Churn() const override { return inner_->Churn(); }

  /// Queries answered and rows scanned (flat: every live row once per
  /// query column) while tracing was on.
  uint64_t traced_queries() const { return queries_.load(); }
  uint64_t traced_rows() const { return rows_.load(); }

 private:
  void Count(size_t queries, size_t query_columns) const {
    if (!Tracer::Get().enabled()) return;
    queries_.fetch_add(queries);
    rows_.fetch_add(query_columns * inner_->num_columns());
  }

  std::unique_ptr<server::LakeBackend> inner_;
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> rows_{0};
};

// ---------------------------------------------------------------- inputs

struct Prepared {
  Inputs in;
  std::vector<Columns> query_emb;  // per query table
};

// Embeds `csvs` over kBuildThreads threads, each with its own model stack;
// result i belongs to csvs[i]. The threads are joined before returning, so
// the process can still fork shard workers afterwards.
std::vector<Columns> EmbedAll(const std::vector<std::string>& csvs,
                              std::vector<std::unique_ptr<ModelStack>>& stacks,
                              bool traced_stages) {
  std::vector<Columns> out(csvs.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kBuildThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < csvs.size(); i += kBuildThreads) {
        out[i] = traced_stages ? EmbedStages(*stacks[t], csvs[i], 0)
                               : EmbedCsv(*stacks[t], csvs[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  return out;
}

size_t JoinColumn(const QuerySpec& spec, const Columns& columns) {
  return spec.join_column % columns.size();
}

// ---------------------------------------------------------------- reference

search::IndexOptions FlatOptions() {
  search::IndexOptions options;
  options.backend = search::IndexBackend::kFlat;
  options.storage = search::Storage::kFloat32;
  return options;
}

// Exact answers for every query table from a 1-shard in-process flat
// index over `tables` (ids with embeddings, in insertion order). Its
// thread pool is joined before returning, so the process can still fork
// shard workers afterwards.
std::vector<Ids> ReferenceAnswers(
    const std::vector<std::pair<std::string, const Columns*>>& tables,
    const Prepared& p, size_t dim) {
  ThreadPool pool(kBuildThreads);
  search::ShardedLakeIndex ref(dim, 1, FlatOptions());
  for (const auto& [id, cols] : tables) ref.AddTable(id, *cols);
  std::vector<Columns> unions;
  std::vector<std::vector<float>> joins;
  for (const QuerySpec& q : p.in.queries) {
    const Columns& cols = p.query_emb[q.table];
    if (q.union_query) {
      unions.push_back(cols);
    } else {
      joins.push_back(cols[JoinColumn(q, cols)]);
    }
  }
  auto u = ref.QueryUnionableBatch(unions, kK, &pool);
  auto j = ref.QueryJoinableBatch(joins, kK, &pool);
  std::vector<Ids> answers;
  size_t ui = 0, ji = 0;
  for (const QuerySpec& q : p.in.queries) {
    answers.push_back(q.union_query ? std::move(u[ui++]) : std::move(j[ji++]));
  }
  return answers;
}

double Recall(const Ids& got, const Ids& want) {
  if (want.empty()) return got.empty() ? 1.0 : 0.0;
  std::set<std::string> w(want.begin(), want.end());
  size_t hit = 0;
  for (const auto& id : got) hit += w.count(id);
  return static_cast<double>(hit) / static_cast<double>(want.size());
}

// ---------------------------------------------------------------- deployment

struct Deployment {
  server::ShardWorkerFleet fleet;  // declared first: outlives the server
  std::unique_ptr<server::LakeServer> server;
  TimingBackend* backend = nullptr;  // owned by server
  std::string socket;
};

std::unique_ptr<Deployment> Deploy(const Workload& w,
                                   const std::vector<std::string>& ids,
                                   const std::vector<Columns>& emb, size_t dim,
                                   const std::string& workdir) {
  auto d = std::make_unique<Deployment>();
  auto lake = std::make_unique<search::ShardedLakeIndex>(dim, kShards, FlatOptions());
  for (size_t i = 0; i < ids.size(); ++i) lake->AddTable(ids[i], emb[i]);
  std::unique_ptr<server::LakeBackend> inner;
  if (w.distributed) {
    const std::string manifest = workdir + "/lake.laks";
    Check(lake->Save(manifest), "save lake");
    // The workers load the saved lake; the local copy is gone before they
    // are forked.
    lake.reset();
    d->fleet = Check(server::ShardWorkerFleet::Spawn(manifest, workdir + "/w"),
                     "spawn shard workers");
    std::vector<pid_t> pids;
    for (size_t s = 0; s < d->fleet.num_workers(); ++s) pids.push_back(d->fleet.pid(s));
    SetWorkers(std::move(pids));
    inner = std::make_unique<server::DistributedBackend>(
        Check(server::DistributedLakeIndex::Connect(manifest, d->fleet.sockets()),
              "connect coordinator"));
  } else {
    inner = std::make_unique<server::InProcessBackend>(std::move(*lake));
  }
  auto timing = std::make_unique<TimingBackend>(std::move(inner));
  d->backend = timing.get();
  d->server = std::make_unique<server::LakeServer>(std::move(timing));
  d->socket = workdir + "/lake.sock";
  Check(d->server->Start(d->socket), "start server");
  return d;
}

std::unique_ptr<server::LakeClient> Connect(const std::string& socket) {
  auto c = std::make_unique<server::LakeClient>();
  Check(c->Connect(socket), "connect client");
  return c;
}

// ---------------------------------------------------------------- load

// Writer progress as the query clients see it: `started` mutations have
// been sent, `applied` acknowledged. A query that read applied == m before
// sending and started == m after receiving ran against exactly the first m
// mutations.
struct WriterProgress {
  std::atomic<size_t> started{0};
  std::atomic<size_t> applied{0};
};

struct Mutation {
  bool add = false;
  std::string id;
  size_t fresh = 0;  // add only: index into Inputs::fresh_ids
  Columns columns;   // add only: what was sent
};

struct ChurnSample {
  size_t query = 0;  // index into Inputs::queries
  size_t state = 0;  // mutations applied
  Ids answer;
};

struct ClientResult {
  std::vector<Completion> done;
  size_t attempted = 0;
  size_t failed = 0;
  double recall_sum = 0;
  size_t recall_n = 0;
  std::vector<ChurnSample> churn_samples;
};

struct Shared {
  const Workload* w = nullptr;
  const Prepared* p = nullptr;
  const std::vector<Ids>* reference = nullptr;  // static lakes only
  const std::set<std::string>* known_ids = nullptr;
  WriterProgress* progress = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_request{1};
};

Result<Ids> Ask(server::LakeClient& client, const ModelStack* stack,
                const Prepared& p, const QuerySpec& q, uint64_t request) {
  ScopedSpan root("bench.query", request);
  Columns own;
  const Columns* cols = &p.query_emb[q.table];
  if (stack != nullptr) {
    own = EmbedStages(*stack, p.in.query_csv[q.table], request);
    cols = &own;
  }
  if (q.union_query) {
    ScopedSpan span("server.union", request);
    return client.QueryUnionable(*cols, kK);
  }
  ScopedSpan span("server.join", request);
  return client.QueryJoinable((*cols)[JoinColumn(q, *cols)], kK);
}

// Structural check for answers whose exact lake state is unknown: at most
// k distinct ids, each a table that was in the lake at some point.
bool Plausible(const Ids& ids, const std::set<std::string>& known) {
  std::set<std::string> seen;
  for (const auto& id : ids) {
    if (!known.count(id) || !seen.insert(id).second) return false;
  }
  return ids.size() <= kK && !ids.empty();
}

void ClientLoop(Shared& sh, server::LakeClient& client, const ModelStack* stack,
                size_t client_index, uint64_t seed, bool record,
                ClientResult* out) {
  Rng rng(seed, 100 + client_index);
  const auto& queries = sh.p->in.queries;
  size_t issued = 0;
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const size_t qi = rng.Uniform(static_cast<uint32_t>(queries.size()));
    const uint64_t request = sh.next_request.fetch_add(1);
    const size_t applied_before =
        sh.progress ? sh.progress->applied.load() : 0;
    const int64_t t0 = NowNs();
    Result<Ids> got = Ask(client, stack, *sh.p, queries[qi], request);
    const int64_t t1 = NowNs();
    const size_t started_after = sh.progress ? sh.progress->started.load() : 0;
    ++issued;
    if (!record) continue;
    ++out->attempted;
    if (!got.ok()) {
      ++out->failed;
      continue;
    }
    bool ok = true;
    if (sh.w->churn) {
      ok = Plausible(got.value(), *sh.known_ids);
      if (ok && applied_before == started_after && issued % kChurnCheckEvery == 0) {
        out->churn_samples.push_back({qi, applied_before, got.value()});
      }
    } else {
      const Ids& want = (*sh.reference)[qi];
      ok = got.value() == want;
      out->recall_sum += Recall(got.value(), want);
      ++out->recall_n;
    }
    if (!ok) {
      ++out->failed;
      continue;
    }
    out->done.push_back({t1, static_cast<double>(t1 - t0) / 1e6});
  }
}

struct WriterResult {
  // Adds and removes apart: their latencies form two clusters (an add
  // carries the table's embedding), and a median over both would sit on
  // the boundary between them.
  std::vector<double> add_latency_ms;
  std::vector<double> remove_latency_ms;
  std::vector<double> lag_ms;
  size_t attempted = 0;
  size_t failed = 0;
  double pending_delta_sum = 0;
  double pending_tomb_sum = 0;
};

// The churn writer's plan and lake bookkeeping: alternate adding the next
// fresh table and removing a seeded live table; the survivors in insertion
// order are what a from-scratch rebuild must reproduce.
class LakeLedger {
 public:
  LakeLedger(const std::vector<std::string>& base, uint64_t seed)
      : order_(base), live_(base), rng_(seed, 200) {}

  size_t mutations() const { return mutations_; }

  /// The next mutation. Adds consume fresh tables in order.
  Mutation Next(const Prepared& p) {
    Mutation m;
    m.add = mutations_ % 2 == 0;
    if (m.add) {
      m.fresh = next_fresh_++;
      m.id = p.in.fresh_ids[m.fresh];
      order_.push_back(m.id);
      live_.push_back(m.id);
    } else {
      const size_t victim = rng_.Uniform(static_cast<uint32_t>(live_.size()));
      m.id = live_[victim];
      live_[victim] = live_.back();
      live_.pop_back();
      removed_.insert(m.id);
    }
    ++mutations_;
    return m;
  }

  std::vector<std::string> Survivors() const {
    std::vector<std::string> out;
    for (const auto& id : order_) {
      if (!removed_.count(id)) out.push_back(id);
    }
    return out;
  }

 private:
  std::vector<std::string> order_;
  std::vector<std::string> live_;
  std::set<std::string> removed_;
  Rng rng_;
  size_t mutations_ = 0;
  size_t next_fresh_ = 0;
};

Status CompactLake(server::LakeClient& client) {
  ScopedSpan span("server.compact", 0);
  return client.Compact();
}

// Churn's writer: `count` mutations open loop at kWriterRate per second,
// latency from each due time, a COMPACT after every kCompactEvery. An add
// embeds its fresh table from CSV with `stack` (the client-side stages of
// an ingest) before sending it.
void RunWriter(server::LakeClient& client, const ModelStack& stack,
               const Prepared& p, LakeLedger& ledger, TimingBackend& backend,
               size_t count, WriterProgress& progress, std::vector<Mutation>* log,
               WriterResult* out) {
  OpenLoopSchedule schedule(NowNs(), kWriterRate);
  for (size_t i = 0; i < count; ++i) {
    // Sleep to 1 ms short of the due time, then yield until it: a sleeping
    // thread on an idle vCPU can wake milliseconds late, and that lateness
    // would swamp sub-millisecond mutation latencies.
    const int64_t due = schedule.due_ns(i);
    for (int64_t left = due - NowNs(); left > 0; left = due - NowNs()) {
      if (left > 1'500'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 1'000'000));
      } else {
        std::this_thread::yield();
      }
    }
    Mutation m = ledger.Next(p);
    const server::LakeBackend::ChurnCounters churn = backend.Churn();
    out->pending_delta_sum += static_cast<double>(churn.pending_delta_tables);
    out->pending_tomb_sum += static_cast<double>(churn.pending_tombstones);
    const int64_t sent = NowNs();
    progress.started.store(ledger.mutations());
    // Span request ids of mutations, apart from the query clients' ids.
    const uint64_t request = 1'000'000'000ull + ledger.mutations();
    Status s;
    {
      ScopedSpan root("bench.mutation", request);
      if (m.add) {
        m.columns = EmbedStages(stack, p.in.fresh_csv[m.fresh], request);
        ScopedSpan span("server.add", request);
        s = client.AddTable(m.id, m.columns);
      } else {
        ScopedSpan span("server.remove", request);
        s = client.RemoveTable(m.id);
      }
    }
    const int64_t done = NowNs();
    progress.applied.store(ledger.mutations());
    ++out->attempted;
    if (!s.ok()) {
      std::fprintf(stderr, "mutation %s failed: %s\n", m.id.c_str(),
                   s.ToString().c_str());
      ++out->failed;
    } else {
      (m.add ? out->add_latency_ms : out->remove_latency_ms)
          .push_back(schedule.LatencyMs(i, done));
      out->lag_ms.push_back(schedule.LagMs(i, sent));
    }
    log->push_back(std::move(m));
    if (ledger.mutations() % kCompactEvery == 0) {
      ++out->attempted;
      if (!CompactLake(client).ok()) ++out->failed;
    }
  }
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double MeanSpanUs(const std::vector<Span>& spans, const char* name) {
  double sum = 0;
  size_t n = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      sum += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

size_t CountSpans(const std::vector<Span>& spans, const char* name) {
  return static_cast<size_t>(std::count_if(
      spans.begin(), spans.end(),
      [name](const Span& s) { return std::strcmp(s.name, name) == 0; }));
}

// A "<field> <n> kB" line of a /proc file, in MB; 0 when absent.
double ProcFieldMb(const std::string& path, const char* field) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
    }
  }
  return 0;
}

// Peak resident set of this process since the last ResetPeakRss.
double PeakRssMb() { return ProcFieldMb("/proc/self/status", "VmHWM:"); }

// Resident memory of a process that no other process maps: for a shard
// worker, what it loaded and allocated itself, without the pages it still
// shares copy-on-write with the benchmark it was forked from.
double PrivateMb(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/smaps_rollup";
  return ProcFieldMb(path, "Private_Clean:") + ProcFieldMb(path, "Private_Dirty:");
}

// Returns freed heap to the kernel and restarts the peak resident set
// (VmHWM) from the current one; false where the kernel refuses.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// CPU time stolen from this machine by the hypervisor, all CPUs, in
// clock ticks (the aggregate line of /proc/stat); 0 where unavailable.
// Reported as run context: on a shared VM it explains much of the spread
// between runs.
double StealTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0};
  f >> cpu;
  for (double& x : v) f >> x;
  return cpu == "cpu" && f ? v[7] : 0.0;
}

// CPU time, user + system, of this process (client stages, server, and
// on churn the writer) plus every shard worker. A vCPU's time stolen by the
// hypervisor is not the task's CPU time, so this is what the work cost
// whatever the neighbours do.
double DeploymentCpuSeconds(const server::ShardWorkerFleet& fleet) {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  double cpu = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  for (size_t s = 0; s < fleet.num_workers(); ++s) {
    // Fields 14 and 15 of /proc/<pid>/stat: utime and stime, in ticks. The
    // workers are forked without exec, so the command name has no spaces.
    std::ifstream f("/proc/" + std::to_string(fleet.pid(s)) + "/stat");
    std::string field;
    for (int i = 0; i < 13; ++i) f >> field;
    double utime = 0, stime = 0;
    f >> utime >> stime;
    if (!f) Die("cannot read the CPU time of shard worker " + std::to_string(fleet.pid(s)));
    cpu += (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return cpu;
}

double LoadAvg1() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <csv_query|vector_scan|churn|"
               "distributed_scan> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n");
  return 2;
}

struct WindowResult {
  std::vector<Completion> done;
  double cpu_s = 0;  // CPU time of the benchmark process and shard workers
  double steal_ticks = 0;  // CPU time stolen by the hypervisor meanwhile
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t attempted = 0;
  size_t failed = 0;
  double recall_sum = 0;
  size_t recall_n = 0;
  std::vector<ChurnSample> churn_samples;
  double seconds = 0;
  size_t correct_queries = 0;
};

}  // namespace

int Main(int argc, char** argv) {
  std::string workload_name, workdir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload_name = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--workdir") workdir = v;
    else return Usage();
  }
  const Workload* wp = FindWorkload(workload_name);
  if (wp == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      workdir.empty() || argc % 2 != 1) {
    return Usage();
  }
  const Workload& w = *wp;

  // Run context. Timings from anything but an optimized build are refused.
  const std::string build_type = E2E_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    Die("refusing to run: built as '" + build_type +
        "', not an optimized Release build");
  }
  const double load_before = LoadAvg1();
  const char* force_scalar = std::getenv("LAKS_FORCE_SCALAR");
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d cores=%u "
              "build=%s kernels=%s%s load_before=%.2f\n",
              w.name, static_cast<unsigned long long>(seed), seconds, trace,
              std::thread::hardware_concurrency(), build_type.c_str(),
              search::Kernels().name,
              force_scalar && *force_scalar ? " (LAKS_FORCE_SCALAR)" : "",
              load_before);
  std::filesystem::create_directories(workdir);

  // Inputs, generated from the seed and excluded from every timing: the
  // CSV text, and the query tables' and lake tables' embeddings, which the
  // vector clients send and the reference ranks. The churn writer needs one
  // fresh table per two mutations.
  const size_t churn_mutations =
      w.churn ? static_cast<size_t>(std::llround(kWriterRate * seconds)) : 0;
  InputShape shape;
  shape.lake_tables = w.lake_tables;
  shape.query_tables = kQueryTables;
  shape.fresh_tables = w.churn ? churn_mutations / 2 + 1 : 0;
  Prepared p;
  p.in = GenerateInputs(shape, seed);

  // One model stack per build thread; csv clients and the writer reuse them
  // (each thread owns one at a time).
  std::vector<std::unique_ptr<ModelStack>> stacks;
  for (size_t t = 0; t < kBuildThreads; ++t) stacks.push_back(std::make_unique<ModelStack>());
  const size_t dim = stacks[0]->dim();
  p.query_emb = EmbedAll(p.in.query_csv, stacks, false);
  const std::vector<Columns> lake_emb = EmbedAll(p.in.lake_csv, stacks, false);

  // Exact reference, before set-up, so that neither its timing nor the
  // peak resident set counts it.
  std::vector<std::pair<std::string, const Columns*>> base;
  for (size_t i = 0; i < p.in.lake_ids.size(); ++i) base.emplace_back(p.in.lake_ids[i], &lake_emb[i]);
  const std::vector<Ids> reference = ReferenceAnswers(base, p, dim);
  std::set<std::string> known(p.in.lake_ids.begin(), p.in.lake_ids.end());
  known.insert(p.in.fresh_ids.begin(), p.in.fresh_ids.end());
  const bool reset = ResetPeakRss();
  const double rss_at_reset = PeakRssMb();
  if (!reset) {
    std::fprintf(stderr, "e2e_bench: cannot reset the peak resident set; "
                         "peak_rss_mb includes input generation\n");
  }

  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(trace == 1);

  // Set-up, w.setup_reps times: lake build (parse, sketch, embed, index),
  // save + worker load for distributed_scan, server start, client connects.
  // All but the last deployment are torn down; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::vector<std::unique_ptr<server::LakeClient>> clients;
  // At most four connections: one per client, plus the churn writer's.
  // The last one also carries STATS and the final checks, which run while
  // no client is sending.
  const size_t num_connections = w.clients + (w.churn ? 1 : 0);
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    clients.clear();
    dep.reset();
    SetWorkers({});
    const int64_t t0 = NowNs();
    dep = Deploy(w, p.in.lake_ids, EmbedAll(p.in.lake_csv, stacks, true), dim, workdir);
    for (size_t c = 0; c < num_connections; ++c) clients.push_back(Connect(dep->socket));
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  server::LakeClient& control = *clients.back();

  WriterProgress progress;
  LakeLedger ledger(p.in.lake_ids, seed);
  std::vector<Mutation> mutation_log;
  WriterResult writer;

  // One measurement window: closed-loop clients (plus the churn writer)
  // for `secs`; `record` false makes it a warm-up.
  auto window = [&](double secs, bool record, size_t mutations) {
    Shared sh;
    sh.w = &w;
    sh.p = &p;
    sh.reference = &reference;
    sh.known_ids = &known;
    sh.progress = w.churn ? &progress : nullptr;
    std::vector<ClientResult> results(w.clients);
    std::vector<std::thread> threads;
    const double cpu0 = DeploymentCpuSeconds(dep->fleet);
    const int64_t t0 = NowNs();
    for (size_t c = 0; c < w.clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(sh, *clients[c], w.csv_clients ? stacks[c].get() : nullptr, c,
                   seed, record, &results[c]);
      });
    }
    const int64_t end = t0 + static_cast<int64_t>(secs * 1e9);
    const double steal0 = StealTicks();
    if (mutations > 0) {
      // The writer embeds fresh tables with the one stack no client holds.
      RunWriter(control, *stacks[kBuildThreads - 1], p, ledger, *dep->backend,
                mutations, progress, &mutation_log, &writer);
    }
    while (NowNs() < end) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sh.stop.store(true);
    for (auto& th : threads) th.join();
    WindowResult r;
    r.cpu_s = DeploymentCpuSeconds(dep->fleet) - cpu0;
    r.steal_ticks = StealTicks() - steal0;
    r.start_ns = t0;
    r.end_ns = end;
    r.seconds = Seconds(NowNs() - t0);
    for (auto& cr : results) {
      r.done.insert(r.done.end(), cr.done.begin(), cr.done.end());
      r.attempted += cr.attempted;
      r.failed += cr.failed;
      r.recall_sum += cr.recall_sum;
      r.recall_n += cr.recall_n;
      for (auto& s : cr.churn_samples) r.churn_samples.push_back(std::move(s));
    }
    r.correct_queries = r.attempted - r.failed;
    return r;
  };

  tracer.set_enabled(false);
  window(kWarmupSeconds, false, 0);

  // Untraced window; the traced run splits `seconds` into an untraced half
  // (for the tracing overhead) and a traced half.
  const double untraced_secs = trace == 1 ? seconds / 2 : seconds;
  const size_t untraced_mutations = trace == 1 ? churn_mutations / 2 : churn_mutations;
  WindowResult main_window = window(untraced_secs, true, untraced_mutations);

  WindowResult traced_window;
  server::ServerStats stats_before{}, stats_after{};
  std::vector<server::ServerStats> worker_before, worker_after;
  auto worker_stats = [&](std::vector<server::ServerStats>* out) {
    for (const std::string& sock : dep->fleet.sockets()) {
      server::LakeClient wc;
      Check(wc.Connect(sock), "connect worker");
      out->push_back(Check(wc.Stats(), "worker stats"));
    }
  };
  if (trace == 1) {
    stats_before = Check(control.Stats(), "stats");
    worker_stats(&worker_before);
    tracer.set_enabled(true);
    traced_window = window(seconds - untraced_secs, true,
                           churn_mutations - untraced_mutations);
    tracer.set_enabled(false);
    stats_after = Check(control.Stats(), "stats");
    worker_stats(&worker_after);
    tracer.set_enabled(true);
  }

  // Peak memory of set-up and serving: this process since the reset after
  // input generation, plus each shard worker's own pages. Read before the
  // final checks, whose reference indexes belong to the benchmark.
  double rss = PeakRssMb();
  std::printf("memory: benchmark process peak %.1f MB (%.1f MB at the reset)", rss,
              rss_at_reset);
  for (size_t s = 0; s < dep->fleet.num_workers(); ++s) {
    const double worker = PrivateMb(dep->fleet.pid(s));
    std::printf("%s%.1f", s == 0 ? "; shard workers' private MB " : " + ", worker);
    rss += worker;
  }
  std::printf("\n");

  // Final COMPACT, then every query table is asked again and must match a
  // from-scratch rebuild of the surviving tables.
  size_t attempted = main_window.attempted + traced_window.attempted + writer.attempted;
  size_t failed = main_window.failed + traced_window.failed + writer.failed;
  double recall_sum = main_window.recall_sum + traced_window.recall_sum;
  size_t recall_n = main_window.recall_n + traced_window.recall_n;
  auto tally = [&](const Ids& got, const Ids& want, bool ok) {
    ++attempted;
    if (!ok || got != want) ++failed;
    recall_sum += Recall(got, want);
    ++recall_n;
  };
  if (!w.churn || ledger.mutations() % kCompactEvery != 0) {
    ++attempted;
    if (!CompactLake(control).ok()) ++failed;
  }
  std::map<std::string, const Columns*> emb_by_id;
  for (size_t i = 0; i < p.in.lake_ids.size(); ++i) emb_by_id[p.in.lake_ids[i]] = &lake_emb[i];
  for (const Mutation& m : mutation_log) {
    if (m.add) emb_by_id[m.id] = &m.columns;
  }
  {
    std::vector<std::pair<std::string, const Columns*>> survivors;
    for (const auto& id : ledger.Survivors()) survivors.emplace_back(id, emb_by_id.at(id));
    const std::vector<Ids> rebuilt = ReferenceAnswers(survivors, p, dim);
    for (size_t qi = 0; qi < p.in.queries.size(); ++qi) {
      Result<Ids> got = Ask(control, nullptr, p, p.in.queries[qi], 0);
      tally(got.ok() ? got.value() : Ids{}, rebuilt[qi], got.ok());
    }
  }

  // Churn: replay the mutation log on an in-process flat index and check
  // each sampled query against the exact state it ran on.
  if (w.churn) {
    std::vector<ChurnSample> samples = std::move(main_window.churn_samples);
    for (auto& s : traced_window.churn_samples) samples.push_back(std::move(s));
    std::sort(samples.begin(), samples.end(),
              [](const ChurnSample& a, const ChurnSample& b) { return a.state < b.state; });
    ThreadPool pool(kBuildThreads);
    search::ShardedLakeIndex replay(dim, 1, FlatOptions());
    for (const auto& [id, cols] : base) replay.AddTable(id, *cols);
    replay.Seal();
    size_t applied = 0;
    for (const ChurnSample& s : samples) {
      for (; applied < s.state; ++applied) {
        const Mutation& m = mutation_log[applied];
        if (m.add) {
          replay.AddTable(m.id, m.columns);
        } else {
          Check(replay.RemoveTable(m.id), "replay remove");
        }
      }
      const QuerySpec& q = p.in.queries[s.query];
      const Columns& cols = p.query_emb[q.table];
      const Ids want = q.union_query
                           ? replay.QueryUnionable(cols, kK, &pool)
                           : replay.QueryJoinable(cols[JoinColumn(q, cols)], kK, &pool);
      // The window already counted this query as attempted.
      if (s.answer != want) ++failed;
      recall_sum += Recall(s.answer, want);
      ++recall_n;
    }
    std::printf("churn: %zu queries checked exactly against the replayed lake\n",
                samples.size());
  }

  const uint64_t backend_queries = dep->backend->traced_queries();
  const uint64_t backend_rows = dep->backend->traced_rows();
  clients.clear();
  dep.reset();
  SetWorkers({});
  const double load_after = LoadAvg1();
  std::printf("context: load_after=%.2f\n", load_after);

  const bool correct = failed == 0;
  // Wall-clock figures of the untraced window (the whole run, or the traced
  // run's first half) and of churn's writer. Every run prints them; the
  // traced run reports them as bench.* diagnostics. They are not end-to-end
  // metrics: on a shared VM the hypervisor's steal moves them by a factor of
  // 3 to 5 between runs (README.md).
  const WindowSummary sq =
      SummarizeWindow(main_window.done, main_window.start_ns, main_window.end_ns, kSlices);
  const Summary adds = Summarize(writer.add_latency_ms);
  std::vector<double> all_mutations = writer.add_latency_ms;
  all_mutations.insert(all_mutations.end(), writer.remove_latency_ms.begin(),
                       writer.remove_latency_ms.end());
  const Summary mutations = Summarize(all_mutations, 95);
  std::vector<Metric> metrics;
  if (trace == 0) {
    std::vector<double> pooled;
    for (const Completion& c : main_window.done) pooled.push_back(c.latency_ms);
    const Summary q = Summarize(pooled);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"query_cpu_ms",
         main_window.cpu_s * 1e3 /
             static_cast<double>(std::max<size_t>(main_window.correct_queries, 1)),
         "ms"},
        {"recall_at_10", recall_n ? recall_sum / static_cast<double>(recall_n) : 0.0, "ratio"},
        {"peak_rss_mb", rss, "MB"},
    };
    std::printf("queries: medians over %zu slices, %zu with a p99: query_qps %.6g 1/s, "
                "query_p50_ms %.6g ms, query_p99_ms %.6g ms; whole window: n=%zu, "
                "%.1f/s, p50 %.4f ms, p%g %.4f ms with %zu beyond; CPU %.1f s over "
                "%.1f s; hypervisor steal %.1f%% of CPU time\n",
                kSlices, sq.slices_with_p99, sq.per_second, sq.p50, sq.p99, q.n,
                static_cast<double>(main_window.correct_queries) / main_window.seconds,
                q.p50, q.tail_pct, q.tail, q.beyond, main_window.cpu_s, main_window.seconds,
                main_window.steal_ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) /
                    (main_window.seconds * std::thread::hardware_concurrency()) * 100);
    if (w.churn) {
      std::printf("mutations (open loop, from due time): mutation_p50_ms %.6g ms over %zu "
                  "adds; mutation_p%g_ms %.6g ms over all %zu with %zu beyond\n",
                  adds.p50, adds.n, mutations.tail_pct, mutations.tail, mutations.n,
                  mutations.beyond);
    }
    std::printf("error_rate %.6g (failed %zu of %zu attempted)\n",
                attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                failed, attempted);
  } else {
    const std::vector<Span> spans = tracer.Collect();
    const StatsDelta sd = DiffStats(stats_before, stats_after);
    size_t queries = 0;
    double rtt_sum = 0;
    for (const char* name : {"server.join", "server.union"}) {
      const size_t n = CountSpans(spans, name);
      queries += n;
      rtt_sum += MeanSpanUs(spans, name) * static_cast<double>(n);
    }
    const double rtt_us = queries ? rtt_sum / static_cast<double>(queries) : 0.0;
    const double batch_us = MeanSpanUs(spans, "search.batch");
    const double per_query = static_cast<double>(std::max<uint64_t>(backend_queries, 1));
    double worker_us = 0, slowest_us = 0;
    if (w.distributed) {
      server::ServerStats sum_before{}, sum_after{};
      for (size_t s = 0; s < worker_before.size(); ++s) {
        slowest_us = std::max(slowest_us, DiffStats(worker_before[s], worker_after[s]).handler_us);
        sum_before.requests += worker_before[s].requests;
        sum_before.total_latency_ms += worker_before[s].total_latency_ms;
        sum_after.requests += worker_after[s].requests;
        sum_after.total_latency_ms += worker_after[s].total_latency_ms;
      }
      worker_us = DiffStats(sum_before, sum_after).handler_us;
    }
    const double qps_untraced = sq.per_second;
    const double qps_traced =
        SummarizeWindow(traced_window.done, traced_window.start_ns, traced_window.end_ns,
                        kSlices).per_second;
    // Stage coverage: how much of each query span its stage spans cover.
    std::map<uint64_t, std::vector<Interval>> kids;
    for (const Span& s : spans) {
      if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    double covered = 0, total = 0;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "bench.query") != 0) continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      total += dur;
      covered += dur - static_cast<double>(SelfTime({s.start_ns, s.end_ns}, kids[s.id]));
    }
    const auto layers = LayerSelfTimes(spans);
    auto self_ms = [&layers](const char* layer) {
      auto it = layers.find(layer);
      return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
    };
    double lag = 0;
    for (double l : writer.lag_ms) lag += l;
    const double nmut = static_cast<double>(std::max<size_t>(writer.attempted, 1));
    metrics = {
        {"table.parse_us", MeanSpanUs(spans, "table.parse"), "us"},
        {"sketch.build_us", MeanSpanUs(spans, "sketch.build"), "us"},
        {"core.embed_us", MeanSpanUs(spans, "core.embed"), "us"},
        {"core.columns_embedded", static_cast<double>(g_columns_embedded.load()), "count"},
        {"server.rtt_join_us", MeanSpanUs(spans, "server.join"), "us"},
        {"server.rtt_union_us", MeanSpanUs(spans, "server.union"), "us"},
        {"server.rtt_add_us", MeanSpanUs(spans, "server.add"), "us"},
        {"server.rtt_remove_us", MeanSpanUs(spans, "server.remove"), "us"},
        {"server.rtt_compact_ms", MeanSpanUs(spans, "server.compact") / 1e3, "ms"},
        {"server.wire_us", rtt_us - sd.handler_us, "us"},
        {"server.handler_us", sd.handler_us, "us"},
        {"server.queue_wait_us", sd.queue_wait_us, "us"},
        {"server.avg_batch", sd.avg_batch, "count"},
        {"search.batch_us", batch_us, "us"},
        {"search.us_per_query",
         batch_us * static_cast<double>(CountSpans(spans, "search.batch")) / per_query, "us"},
        {"search.rows_scanned_per_query", static_cast<double>(backend_rows) / per_query,
         "count"},
        {"search.add_us", MeanSpanUs(spans, "search.add"), "us"},
        {"search.remove_us", MeanSpanUs(spans, "search.remove"), "us"},
        {"search.compact_ms", MeanSpanUs(spans, "search.compact") / 1e3, "ms"},
        {"search.pending_delta_tables", writer.pending_delta_sum / nmut, "count"},
        {"search.pending_tombstones", writer.pending_tomb_sum / nmut, "count"},
        {"distributed.coordinator_us", w.distributed ? batch_us : 0.0, "us"},
        {"distributed.worker_handler_us", worker_us, "us"},
        {"distributed.slowest_worker_us", slowest_us, "us"},
        {"distributed.hop_us", w.distributed ? batch_us - slowest_us : 0.0, "us"},
        {"bench.query_qps", sq.per_second, "1/s"},
        {"bench.query_p50_ms", sq.p50, "ms"},
        {"bench.query_p99_ms", sq.p99, "ms"},
        {"bench.mutation_p50_ms", adds.p50, "ms"},
        {"bench.mutation_p95_ms", mutations.tail, "ms"},
        {"bench.writer_lag_ms", lag / nmut, "ms"},
        {"bench.trace_overhead_pct",
         qps_untraced > 0 ? (qps_untraced - qps_traced) / qps_untraced * 100 : 0.0, "%"},
        {"bench.stage_coverage_pct", total > 0 ? covered / total * 100 : 0.0, "%"},
    };
    for (const char* layer : {"bench", "table", "sketch", "core", "server", "search"}) {
      metrics.push_back({std::string("self.") + layer + "_ms", self_ms(layer), "ms"});
    }
    const std::string path = workdir + "/trace-" + w.name + "-" + std::to_string(seed) + ".jsonl";
    if (!tracer.WriteJsonl(path)) Die("cannot write " + path);
    std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  }

  for (const Metric& m : metrics) std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
