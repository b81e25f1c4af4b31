// Concurrency stress scenarios for the TSan CI leg (also run, more
// gently, in the plain suites). Each test hammers one documented
// contract from docs/architecture.md's concurrency section:
//
//   * queries racing live ingest, deletes and Compact on a
//     ShardedLakeIndex (epoch pinning: a query must always see a
//     consistent shard set + handle maps),
//   * SHARD_TABLES (LakeBackend::TableIds) racing the same churn on the
//     in-process and the distributed backend (one epoch per snapshot),
//   * LakeServer::Stop() racing a client burst (drain semantics), and
//   * QueryBatcher::Stop() racing submitters (accepted-before-Stop
//     queries all get answers).
//
// Iteration counts are fixed, not wall-time based, so a TSan build (at
// its ~10x slowdown) still finishes in seconds. The assertions are
// deliberately weak — the race detector is the real oracle here; the
// EXPECTs only pin liveness and the never-partial-result contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/backend.h"
#include "server/distributed_lake_index.h"
#include "server/batcher.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace tsfm::server {
namespace {

using search::IndexOptions;
using search::ShardedLakeIndex;
using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::TempFile;

constexpr size_t kDim = 8;

ShardedLakeIndex BuildIndex(const Corpus& corpus, size_t shards) {
  ShardedLakeIndex index(kDim, shards, IndexOptions{});
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  index.Seal();
  return index;
}

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/tsfm_tsan_stress_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Queries scatter over a pool (exercising ParallelFor under the shared
// epoch lock) while one thread churns tables and another compacts. Every
// query must return a well-formed result from SOME epoch: k ids, no
// duplicates, never a torn map (which would show up as a crash, a TSan
// report, or an id from a tombstoned-then-reused handle).
TEST(TsanStressTest, QueriesRaceIngestDeletesAndCompact) {
  const Corpus corpus = MakeCorpus(40, kDim, 11);
  ShardedLakeIndex index = BuildIndex(corpus, /*shards=*/3);
  ThreadPool query_pool(4);

  constexpr int kQueryIters = 60;
  constexpr int kChurnIters = 40;
  constexpr int kCompactIters = 12;

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueryIters; ++i) {
        const auto& q = corpus.join_queries[(t + i) % corpus.join_queries.size()];
        auto ids = index.QueryJoinable(q, 5, &query_pool);
        if (ids.size() > 5) failed.store(true);
        auto united = index.QueryUnionable(
            corpus.union_queries[i % corpus.union_queries.size()], 3);
        if (united.size() > 3) failed.store(true);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kChurnIters; ++i) {
      const std::string id = "churn_" + std::to_string(i);
      index.AddTable(id, corpus.tables[i % corpus.tables.size()]);
      if (i % 2 == 1) {
        // Tombstone the table added two rounds ago; it must exist.
        Status removed = index.RemoveTable("churn_" + std::to_string(i - 1));
        if (!removed.ok()) failed.store(true);
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kCompactIters; ++i) {
      Status compacted = index.Compact(&query_pool);
      if (!compacted.ok()) failed.store(true);
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  // The dust settles into a consistent lake: one final compact folds the
  // surviving churn and the counters agree with what the threads did.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_FALSE(index.churned());
  EXPECT_EQ(index.num_tables(), index.num_live_tables());
}

// SHARD_TABLES racing COMPACT: every TableIds() snapshot must be the id
// list of exactly one epoch — never a mix of two, and never a read past a
// handle space that a compaction just shrank. The mutator records every
// epoch it creates; the reader's snapshots must all be among them.
void ExpectTableIdsSnapshotOneEpoch(LakeBackend* backend,
                                    const Corpus& corpus) {
  ThreadPool pool(2);
  std::vector<std::vector<std::string>> epochs = {backend->TableIds().value()};
  std::vector<std::vector<std::string>> snapshots;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Distinct consecutive snapshots only, so memory stays bounded.
    while (!done.load()) {
      auto ids = backend->TableIds();
      started.store(true);
      if (!ids.ok()) {
        ADD_FAILURE() << ids.status().ToString();
        return;
      }
      if (snapshots.empty() || snapshots.back() != ids.value()) {
        snapshots.push_back(std::move(ids).value());
      }
    }
  });
  while (!started.load()) std::this_thread::yield();
  constexpr int kCycles = 10;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      const std::string id =
          "cycle_" + std::to_string(cycle) + "_" + std::to_string(i);
      const auto& columns = corpus.tables[(cycle + i) % corpus.tables.size()];
      ASSERT_TRUE(backend->AddTable(id, columns).ok());
      epochs.push_back(backend->TableIds().value());
    }
    // Tombstones leave the id list alone; the compaction drops them.
    ASSERT_TRUE(
        backend->RemoveTable("cycle_" + std::to_string(cycle) + "_1").ok());
    ASSERT_TRUE(backend->RemoveTable(corpus.ids[cycle]).ok());
    ASSERT_TRUE(backend->Compact(&pool).ok());
    epochs.push_back(backend->TableIds().value());
  }
  done.store(true);
  reader.join();
  EXPECT_FALSE(snapshots.empty());
  for (const auto& snapshot : snapshots) {
    EXPECT_NE(std::find(epochs.begin(), epochs.end(), snapshot), epochs.end())
        << "a TableIds() snapshot of " << snapshot.size()
        << " ids matches no epoch";
  }
}

TEST(TsanStressTest, InProcessTableIdsRaceAddRemoveAndCompact) {
  const Corpus corpus = MakeCorpus(30, kDim, 41);
  InProcessBackend backend(BuildIndex(corpus, /*shards=*/3));
  ExpectTableIdsSnapshotOneEpoch(&backend, corpus);
}

TEST(TsanStressTest, DistributedTableIdsRaceAddRemoveAndCompact) {
  const Corpus corpus = MakeCorpus(30, kDim, 43);
  TempFile manifest("tsan_stress_table_ids.laks");
  ASSERT_TRUE(BuildIndex(corpus, /*shards=*/2).Save(manifest.path()).ok());
  // In-process workers, one LakeServer per shard file.
  std::vector<std::unique_ptr<LakeServer>> workers;
  std::vector<std::string> sockets;
  for (size_t s = 0; s < 2; ++s) {
    auto shard = ShardedLakeIndex::Load(
        search::LakeShardFileName(manifest.path(), s));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    workers.push_back(std::make_unique<LakeServer>(std::move(shard).value()));
    sockets.push_back(UniqueSocketPath());
    ASSERT_TRUE(workers.back()->Start(sockets.back()).ok());
  }
  auto coordinator = DistributedLakeIndex::Connect(manifest.path(), sockets);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  {
    DistributedBackend backend(std::move(coordinator).value());
    ExpectTableIdsSnapshotOneEpoch(&backend, corpus);
  }
  for (size_t s = 0; s < workers.size(); ++s) {
    workers[s]->Stop();
    ::unlink(sockets[s].c_str());
  }
}

// Stop() racing a client burst: accepted requests drain (each client sees
// either a correct reply or a clean connection error — never a hang, never
// a torn frame), and the server object tears down while handlers are still
// mid-request.
TEST(TsanStressTest, ServerStopDuringClientBurst) {
  const Corpus corpus = MakeCorpus(30, kDim, 23);
  ServerOptions options;
  options.io_threads = 4;
  options.query_threads = 2;
  auto server = std::make_unique<LakeServer>(BuildIndex(corpus, /*shards=*/2),
                                             options);
  const std::string socket_path = UniqueSocketPath();
  ASSERT_TRUE(server->Start(socket_path).ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> answered{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        LakeClient client;
        if (!client.Connect(socket_path).ok()) {
          // The server is already down; every later attempt will fail too.
          rejected.fetch_add(1);
          continue;
        }
        auto got = client.QueryJoinable(
            corpus.join_queries[(c + i) % corpus.join_queries.size()], 5);
        if (got.ok()) {
          answered.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  // Let the burst get going, then pull the plug mid-flight.
  while (answered.load() == 0 && rejected.load() == 0) {
    std::this_thread::yield();
  }
  server->Stop();
  EXPECT_FALSE(server->running());
  for (auto& th : clients) th.join();
  server.reset();
  ::unlink(socket_path.c_str());
  EXPECT_EQ(answered.load() + rejected.load(), kClients * kRequestsPerClient);
}

// Batcher Stop() racing submitters: every Submit returns (an answer or a
// clean shutdown rejection), and Stop never strands an accepted query.
TEST(TsanStressTest, BatcherStopDuringSubmitBurst) {
  const Corpus corpus = MakeCorpus(30, kDim, 31);
  InProcessBackend backend(BuildIndex(corpus, /*shards=*/2));
  ThreadPool pool(3);
  QueryBatcher batcher(&backend, &pool, /*max_batch=*/4);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> answered{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto got = batcher.Submit(
            Opcode::kJoin,
            {corpus.join_queries[(t + i) % corpus.join_queries.size()]}, 5);
        if (got.ok()) {
          answered.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  while (answered.load() == 0) std::this_thread::yield();
  batcher.Stop();
  for (auto& th : submitters) th.join();
  EXPECT_EQ(answered.load() + rejected.load(), kSubmitters * kPerThread);
  EXPECT_GT(answered.load(), 0);
}

// ThreadPool Shutdown() racing Submit and a concurrent ParallelFor: the
// never-drop-work contract means accepted == executed and the ParallelFor
// range is covered exactly once even if the pool dies under it.
TEST(TsanStressTest, PoolShutdownRacesSubmitAndParallelFor) {
  for (int round = 0; round < 8; ++round) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    std::vector<std::atomic<int>> touched(64);
    std::thread submitter([&] {
      for (int i = 0; i < 200; ++i) {
        if (pool->Submit([&executed] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
    std::thread looper([&] {
      ParallelFor(pool.get(), 0, touched.size(),
                  [&](size_t i) { touched[i].fetch_add(1); });
    });
    pool->Shutdown();
    submitter.join();
    looper.join();
    EXPECT_EQ(accepted.load(), executed.load());
    for (auto& t : touched) EXPECT_EQ(t.load(), 1);
  }
}

}  // namespace
}  // namespace tsfm::server
