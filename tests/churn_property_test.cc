// Churn-parity property harness: a seeded randomized driver interleaves
// AddTable / RemoveTable / queries / Compact against a live lake and holds
// it to the churn-parity bar — after every compaction (and continuously
// for flat float32) the mutable lake must rank bit-identically to a lake
// rebuilt from scratch over the survivors in original insertion order.
// The same op script runs through all three deployments (in-process,
// LakeServer over a socket, distributed coordinator + shard workers)
// across {1,2,4} shards x {float32,sq8}, plus a concurrent
// query-during-compaction run on the pool.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using server::DistributedLakeIndex;
using server::LakeClient;
using server::LakeServer;
using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::RandomVec;
using testutil::TempFile;

// ------------------------------------------------------------- the model
// A plain insertion log with alive flags: the oracle every deployment is
// compared against. Removal kills the newest live entry with the id —
// the same rule the lake implements.
struct Model {
  struct Entry {
    std::string id;
    std::vector<std::vector<float>> cols;
    bool alive = true;
  };
  std::vector<Entry> log;

  void Add(const std::string& id, std::vector<std::vector<float>> cols) {
    log.push_back({id, std::move(cols), true});
  }
  bool Remove(const std::string& id) {
    for (size_t i = log.size(); i-- > 0;) {
      if (log[i].alive && log[i].id == id) {
        log[i].alive = false;
        return true;
      }
    }
    return false;
  }
  std::vector<std::string> LiveIds() const {
    std::vector<std::string> ids;
    for (const auto& e : log) {
      if (e.alive) ids.push_back(e.id);
    }
    return ids;
  }
  /// A from-scratch rebuild over the survivors: the parity gold standard.
  ShardedLakeIndex Rebuild(size_t dim, size_t shards,
                           const IndexOptions& options) const {
    ShardedLakeIndex index(dim, shards, options);
    for (const auto& e : log) {
      if (e.alive) index.AddTable(e.id, e.cols);
    }
    return index;
  }
};

// ----------------------------------------------------------- the drivers
// One op interface, three deployments. Mutation calls ASSERT internally so
// a transport failure stops the run at the op that broke.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void Add(const std::string& id,
                   const std::vector<std::vector<float>>& cols) = 0;
  virtual Status Remove(const std::string& id) = 0;
  virtual void Compact() = 0;
  virtual std::vector<std::string> Join(const std::vector<float>& q,
                                        size_t k) = 0;
  virtual std::vector<std::string> Union(
      const std::vector<std::vector<float>>& q, size_t k) = 0;
};

ShardedLakeIndex BuildSharded(const Corpus& corpus, size_t dim, size_t shards,
                              const IndexOptions& options) {
  ShardedLakeIndex index(dim, shards, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

class InProcessDriver : public Driver {
 public:
  InProcessDriver(const Corpus& corpus, size_t dim, size_t shards,
                  const IndexOptions& options)
      : index_(BuildSharded(corpus, dim, shards, options)) {
    index_.Seal();
  }
  void Add(const std::string& id,
           const std::vector<std::vector<float>>& cols) override {
    index_.AddTable(id, cols);
  }
  Status Remove(const std::string& id) override {
    return index_.RemoveTable(id);
  }
  void Compact() override { ASSERT_TRUE(index_.Compact().ok()); }
  std::vector<std::string> Join(const std::vector<float>& q,
                                size_t k) override {
    return index_.QueryJoinable(q, k);
  }
  std::vector<std::string> Union(const std::vector<std::vector<float>>& q,
                                 size_t k) override {
    return index_.QueryUnionable(q, k);
  }

 private:
  ShardedLakeIndex index_;
};

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/tsfm_churn_property_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

class ServerDriver : public Driver {
 public:
  ServerDriver(const Corpus& corpus, size_t dim, size_t shards,
               const IndexOptions& options)
      : server_(BuildSharded(corpus, dim, shards, options)),
        socket_(UniqueSocketPath()) {
    EXPECT_TRUE(server_.Start(socket_).ok());
    EXPECT_TRUE(client_.Connect(socket_).ok());
  }
  ~ServerDriver() override {
    server_.Stop();
    ::unlink(socket_.c_str());
  }
  void Add(const std::string& id,
           const std::vector<std::vector<float>>& cols) override {
    ASSERT_TRUE(client_.AddTable(id, cols).ok());
  }
  Status Remove(const std::string& id) override {
    return client_.RemoveTable(id);
  }
  void Compact() override { ASSERT_TRUE(client_.Compact().ok()); }
  std::vector<std::string> Join(const std::vector<float>& q,
                                size_t k) override {
    auto ranked = client_.QueryJoinable(q, k);
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    return ranked.ok() ? std::move(ranked).value() : std::vector<std::string>{};
  }
  std::vector<std::string> Union(const std::vector<std::vector<float>>& q,
                                 size_t k) override {
    auto ranked = client_.QueryUnionable(q, k);
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    return ranked.ok() ? std::move(ranked).value() : std::vector<std::string>{};
  }

 private:
  LakeServer server_;
  std::string socket_;
  LakeClient client_;
};

class DistributedDriver : public Driver {
 public:
  DistributedDriver(const Corpus& corpus, size_t dim, size_t shards,
                    const IndexOptions& options)
      : manifest_("churn_property_distributed.laks") {
    ShardedLakeIndex built = BuildSharded(corpus, dim, shards, options);
    EXPECT_TRUE(built.Save(manifest_.path()).ok());
    for (size_t s = 0; s < shards; ++s) {
      auto shard = ShardedLakeIndex::Load(
          LakeShardFileName(manifest_.path(), s));
      EXPECT_TRUE(shard.ok()) << shard.status().ToString();
      workers_.push_back(
          std::make_unique<LakeServer>(std::move(shard).value()));
      sockets_.push_back(UniqueSocketPath());
      EXPECT_TRUE(workers_.back()->Start(sockets_.back()).ok());
    }
    auto connected = DistributedLakeIndex::Connect(manifest_.path(), sockets_);
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    coordinator_.emplace(std::move(connected).value());
  }
  ~DistributedDriver() override {
    coordinator_.reset();
    for (size_t s = 0; s < workers_.size(); ++s) {
      workers_[s]->Stop();
      ::unlink(sockets_[s].c_str());
    }
  }
  void Add(const std::string& id,
           const std::vector<std::vector<float>>& cols) override {
    ASSERT_TRUE(coordinator_->AddTable(id, cols).ok());
  }
  Status Remove(const std::string& id) override {
    return coordinator_->RemoveTable(id);
  }
  void Compact() override { ASSERT_TRUE(coordinator_->Compact().ok()); }
  std::vector<std::string> Join(const std::vector<float>& q,
                                size_t k) override {
    auto ranked = testutil::JoinBatchOfOne(*coordinator_, q, k);
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    return ranked.ok() ? std::move(ranked).value() : std::vector<std::string>{};
  }
  std::vector<std::string> Union(const std::vector<std::vector<float>>& q,
                                 size_t k) override {
    auto ranked = testutil::UnionBatchOfOne(*coordinator_, q, k);
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    return ranked.ok() ? std::move(ranked).value() : std::vector<std::string>{};
  }

 private:
  TempFile manifest_;
  std::vector<std::unique_ptr<LakeServer>> workers_;
  std::vector<std::string> sockets_;
  std::optional<DistributedLakeIndex> coordinator_;
};

// ---------------------------------------------------------- the property
constexpr size_t kDim = 8;
constexpr size_t kK = 5;
constexpr size_t kOps = 40;
constexpr size_t kBaseTables = 16;

void ExpectParity(Driver* driver, const Model& model, size_t shards,
                  const IndexOptions& options, const Corpus& probes,
                  const char* when) {
  ShardedLakeIndex gold = model.Rebuild(kDim, shards, options);
  for (const auto& q : probes.join_queries) {
    EXPECT_EQ(driver->Join(q, kK), gold.QueryJoinable(q, kK)) << when;
  }
  for (const auto& q : probes.union_queries) {
    EXPECT_EQ(driver->Union(q, kK), gold.QueryUnionable(q, kK)) << when;
  }
}

/// The core property run: seeded op script, oracle model, parity bar.
/// Flat float32 lakes are checked after *every* op (delta rows rank
/// through the identical kernel); sq8 lakes only once compaction folded
/// the float32 delta into the quantized base.
void RunChurnScript(Driver* driver, const Corpus& corpus, size_t shards,
                    const IndexOptions& options, uint64_t seed) {
  const bool continuous_parity = options.storage == Storage::kFloat32;
  Model model;
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    model.Add(corpus.ids[t], corpus.tables[t]);
  }
  Rng rng(seed);
  size_t next_table = corpus.tables.size();
  size_t compactions = 0;
  bool sq8_dirty = false;
  for (size_t op = 0; op < kOps; ++op) {
    SCOPED_TRACE("op " + std::to_string(op) + " seed " + std::to_string(seed));
    const double roll = rng.UniformDouble();
    if (roll < 0.35) {
      // Add — sometimes re-using a live id to exercise newest-live removal.
      const auto live = model.LiveIds();
      std::string id = (!live.empty() && rng.Bernoulli(0.2))
                           ? live[rng.Uniform(static_cast<uint32_t>(
                                 live.size()))]
                           : "prop_" + std::to_string(next_table++);
      std::vector<std::vector<float>> cols(1 + rng.Uniform(2));
      for (auto& col : cols) col = RandomVec(&rng, kDim);
      driver->Add(id, cols);
      model.Add(id, cols);
      sq8_dirty = true;
    } else if (roll < 0.60) {
      const auto live = model.LiveIds();
      if (live.empty()) continue;
      const std::string id =
          live[rng.Uniform(static_cast<uint32_t>(live.size()))];
      EXPECT_TRUE(driver->Remove(id).ok()) << id;
      EXPECT_TRUE(model.Remove(id));
      sq8_dirty = true;
    } else if (roll < 0.70) {
      // Removing an id that was never added (or already fully removed)
      // must be NotFound on every deployment — and must not poison state.
      const std::string ghost = "ghost_" + std::to_string(op);
      EXPECT_EQ(driver->Remove(ghost).code(), StatusCode::kNotFound);
    } else if (roll < 0.85) {
      if (continuous_parity || !sq8_dirty) {
        ExpectParity(driver, model, shards, options, corpus, "mid-script");
      }
    } else {
      driver->Compact();
      ++compactions;
      sq8_dirty = false;
      ExpectParity(driver, model, shards, options, corpus, "post-compaction");
    }
  }
  // Always end on the headline assertion: compact, then bit-identical
  // parity with the from-scratch rebuild.
  driver->Compact();
  ++compactions;
  ExpectParity(driver, model, shards, options, corpus, "final compaction");
  EXPECT_GE(compactions, 1u);
}

struct ChurnCase {
  size_t shards;
  Storage storage;
};

const ChurnCase kMatrix[] = {
    {1, Storage::kFloat32}, {2, Storage::kFloat32}, {4, Storage::kFloat32},
    {1, Storage::kSq8},     {2, Storage::kSq8},     {4, Storage::kSq8},
};

TEST(ChurnPropertyTest, InProcessLakeMatchesRebuildUnderChurn) {
  for (const auto& c : kMatrix) {
    SCOPED_TRACE(std::to_string(c.shards) + " shards, storage " +
                 std::to_string(static_cast<int>(c.storage)));
    IndexOptions options;
    options.storage = c.storage;
    Corpus corpus = MakeCorpus(kBaseTables, kDim, 60 + c.shards);
    InProcessDriver driver(corpus, kDim, c.shards, options);
    RunChurnScript(&driver, corpus, c.shards, options,
                   100 + c.shards * 10 + static_cast<uint64_t>(c.storage));
  }
}

TEST(ChurnPropertyTest, ServedLakeMatchesRebuildUnderChurn) {
  for (const auto& c : kMatrix) {
    SCOPED_TRACE(std::to_string(c.shards) + " shards, storage " +
                 std::to_string(static_cast<int>(c.storage)));
    IndexOptions options;
    options.storage = c.storage;
    Corpus corpus = MakeCorpus(kBaseTables, kDim, 70 + c.shards);
    ServerDriver driver(corpus, kDim, c.shards, options);
    RunChurnScript(&driver, corpus, c.shards, options,
                   200 + c.shards * 10 + static_cast<uint64_t>(c.storage));
  }
}

TEST(ChurnPropertyTest, DistributedLakeMatchesRebuildUnderChurn) {
  for (const auto& c : kMatrix) {
    SCOPED_TRACE(std::to_string(c.shards) + " shards, storage " +
                 std::to_string(static_cast<int>(c.storage)));
    IndexOptions options;
    options.storage = c.storage;
    Corpus corpus = MakeCorpus(kBaseTables, kDim, 80 + c.shards);
    DistributedDriver driver(corpus, kDim, c.shards, options);
    RunChurnScript(&driver, corpus, c.shards, options,
                   300 + c.shards * 10 + static_cast<uint64_t>(c.storage));
  }
}

TEST(ChurnPropertyTest, ConcurrentQueriesDuringPooledCompactionStayClean) {
  // Queries race compactions that rebuild on a real ThreadPool. Every
  // result must be internally consistent (no dead ids, no duplicates) and
  // the final state must hit exact parity. Run under ASan/UBSan and
  // until-fail in CI — this is the race net.
  const size_t shards = 4;
  IndexOptions options;
  Corpus corpus = MakeCorpus(2 * kBaseTables, kDim, 90);
  ShardedLakeIndex index = BuildSharded(corpus, kDim, shards, options);
  index.Seal();
  ThreadPool pool(3);

  Model model;
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    model.Add(corpus.ids[t], corpus.tables[t]);
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries_run{0};
  std::thread querier([&] {
    Rng qrng(91);
    while (!stop.load()) {
      const auto q = RandomVec(&qrng, kDim);
      const auto ranked = index.QueryJoinable(q, kK);
      std::vector<std::string> sorted = ranked;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "duplicate id in a concurrent result";
      queries_run.fetch_add(1);
    }
  });

  Rng rng(92);
  size_t next_table = corpus.tables.size();
  for (size_t round = 0; round < 6; ++round) {
    for (size_t op = 0; op < 6; ++op) {
      if (rng.Bernoulli(0.6)) {
        const std::string id = "live_" + std::to_string(next_table++);
        std::vector<std::vector<float>> cols = {RandomVec(&rng, kDim)};
        index.AddTable(id, cols);
        model.Add(id, std::move(cols));
      } else {
        const auto live = model.LiveIds();
        const std::string id =
            live[rng.Uniform(static_cast<uint32_t>(live.size()))];
        ASSERT_TRUE(index.RemoveTable(id).ok());
        ASSERT_TRUE(model.Remove(id));
      }
    }
    ASSERT_TRUE(index.Compact(&pool).ok());
    // On a single hardware thread the mutator can lap the querier without
    // it ever being scheduled; insist on real interleaving each round.
    const size_t target = queries_run.load() + 1;
    while (queries_run.load() < target) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  }
  stop.store(true);
  querier.join();
  EXPECT_GT(queries_run.load(), 0u);

  ShardedLakeIndex gold = model.Rebuild(kDim, shards, options);
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(index.QueryJoinable(q, kK), gold.QueryJoinable(q, kK));
  }
}

}  // namespace
}  // namespace tsfm::search
