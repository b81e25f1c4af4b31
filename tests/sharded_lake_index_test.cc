// ShardedLakeIndex: scatter/gather parity against an unsharded reference,
// HNSW recall per shard count, the "LAKS" manifest round trip, and failure
// injection for missing/truncated/legacy files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::RandomVec;
using testutil::RecallAtK;

// Ranked handles to ids, truncated to `k`.
std::vector<std::string> RankedTableIds(const std::vector<std::string>& ids,
                                        const std::vector<size_t>& handles,
                                        size_t k) {
  std::vector<std::string> out;
  for (size_t i = 0; i < std::min(k, handles.size()); ++i) {
    out.push_back(ids[handles[i]]);
  }
  return out;
}

// The unsharded reference: one ColumnEmbeddingIndex over the whole corpus,
// one batched search per query and the Fig 6 statics on top — no scatter,
// no merge, no lake lifecycle.
class UnshardedReference {
 public:
  UnshardedReference(const Corpus& corpus, size_t dim)
      : index_(dim), ids_(corpus.ids) {
    for (size_t t = 0; t < corpus.tables.size(); ++t) {
      index_.AddTable(t, corpus.tables[t]);
    }
  }

  std::vector<std::string> QueryJoinable(const std::vector<float>& query,
                                         size_t k) const {
    auto hits = index_.SearchColumnsBatch({query}, k * 3);
    return RankedTableIds(
        ids_, TableRanker::RankFromSingleColumnHits(hits[0], SIZE_MAX), k);
  }

  std::vector<std::string> QueryUnionable(
      const std::vector<std::vector<float>>& query, size_t k) const {
    return RankedTableIds(
        ids_,
        TableRanker::RankFromColumnHits(index_.SearchColumnsBatch(query, k * 3),
                                        SIZE_MAX),
        k);
  }

 private:
  ColumnEmbeddingIndex index_;
  std::vector<std::string> ids_;
};

LakeIndex BuildSingle(const Corpus& corpus, size_t dim) {
  LakeIndex index(dim);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

ShardedLakeIndex BuildSharded(const Corpus& corpus, size_t dim, size_t shards,
                              const IndexOptions& options = {}) {
  ShardedLakeIndex index(dim, shards, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

TEST(ShardedLakeIndexTest, FlatBackendExactParityWithUnsharded) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(60, dim, 1);
  UnshardedReference reference(corpus, dim);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards);
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_tables(), corpus.tables.size());
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(sharded.QueryJoinable(q, 5), reference.QueryJoinable(q, 5))
          << shards << " shards";
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(sharded.QueryUnionable(q, 5), reference.QueryUnionable(q, 5))
          << shards << " shards";
    }
  }
}

TEST(ShardedLakeIndexTest, HnswRecallAtLeastPointNinePerShardCount) {
  const size_t dim = 16, k = 10;
  Corpus corpus = MakeCorpus(200, dim, 2);
  UnshardedReference flat_gold(corpus, dim);
  IndexOptions hnsw;
  hnsw.backend = IndexBackend::kHnsw;
  hnsw.hnsw.ef_search = 128;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards, hnsw);
    double recall_sum = 0;
    for (const auto& q : corpus.join_queries) {
      auto gold = flat_gold.QueryJoinable(q, k);
      ASSERT_GE(gold.size(), k);
      recall_sum += RecallAtK(gold, sharded.QueryJoinable(q, k), k);
    }
    EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()), 0.9)
        << shards << " shards";
  }
}

TEST(ShardedLakeIndexTest, ScatterAndBatchMatchSerial) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(50, dim, 3);
  ThreadPool pool(3);
  // Pool-scattered single queries, serial single queries and batches must
  // agree on every lake state: fresh, churned (post-seal adds plus
  // tombstones, so base + delta merge and filtering are live), and after
  // Compact — for every storage and backend, at 1 and 3 shards.
  auto expect_agreement = [&](const ShardedLakeIndex& lake,
                              const std::string& where) {
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(lake.QueryJoinable(q, 5, &pool), lake.QueryJoinable(q, 5))
          << where;
    }
    auto join_batch = lake.QueryJoinableBatch(corpus.join_queries, 5, &pool);
    ASSERT_EQ(join_batch.size(), corpus.join_queries.size());
    for (size_t q = 0; q < corpus.join_queries.size(); ++q) {
      EXPECT_EQ(join_batch[q], lake.QueryJoinable(corpus.join_queries[q], 5))
          << where;
    }
    auto union_batch =
        lake.QueryUnionableBatch(corpus.union_queries, 5, &pool);
    ASSERT_EQ(union_batch.size(), corpus.union_queries.size());
    for (size_t q = 0; q < corpus.union_queries.size(); ++q) {
      EXPECT_EQ(union_batch[q], lake.QueryUnionable(corpus.union_queries[q], 5))
          << where;
    }
  };
  IndexOptions sq8;
  sq8.storage = Storage::kSq8;
  IndexOptions hnsw;
  hnsw.backend = IndexBackend::kHnsw;
  const std::vector<std::pair<std::string, IndexOptions>> configs = {
      {"float32", IndexOptions{}}, {"sq8", sq8}, {"hnsw", hnsw}};
  for (const auto& [name, options] : configs) {
    for (size_t shards : {size_t{1}, size_t{3}}) {
      const std::string label =
          name + " at " + std::to_string(shards) + " shards";
      ShardedLakeIndex lake = BuildSharded(corpus, dim, shards, options);
      expect_agreement(lake, label + ", fresh");
      lake.Seal();
      Rng rng(13);
      for (size_t t = 0; t < 6; ++t) {
        lake.AddTable("delta_" + std::to_string(t),
                      {RandomVec(&rng, dim), RandomVec(&rng, dim)});
      }
      for (const char* id : {"table_2", "table_9", "delta_1", "table_30"}) {
        ASSERT_TRUE(lake.RemoveTable(id).ok()) << id;
      }
      ASSERT_TRUE(lake.churned());
      expect_agreement(lake, label + ", churned");
      ASSERT_TRUE(lake.Compact().ok());
      ASSERT_FALSE(lake.churned());
      expect_agreement(lake, label + ", compacted");
    }
  }
}

TEST(ShardedLakeIndexTest, ManifestRoundTripBothBackends) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(40, dim, 4);
  for (auto backend : {IndexBackend::kFlat, IndexBackend::kHnsw}) {
    IndexOptions options;
    options.backend = backend;
    options.hnsw.ef_search = 96;
    ShardedLakeIndex index = BuildSharded(corpus, dim, 3, options);
    std::string path = testing::TempDir() + "/tsfm_sharded_lake.laks";
    ThreadPool pool(3);
    ASSERT_TRUE(index.Save(path, &pool).ok());

    auto loaded = ShardedLakeIndex::Load(path, &pool);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().num_shards(), 3u);
    EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
    EXPECT_EQ(loaded.value().options().backend, backend);
    EXPECT_EQ(loaded.value().options().hnsw.ef_search, 96u);
    // Global handles survive the round trip: handle h still names the same
    // table (the manifest records the insertion order).
    for (size_t h = 0; h < index.num_tables(); ++h) {
      EXPECT_EQ(loaded.value().table_id(h), index.table_id(h));
    }
    // Shard files rebuild each shard's index deterministically, so the
    // loaded index answers queries identically — both backends.
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5));
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(loaded.value().QueryUnionable(q, 5), index.QueryUnionable(q, 5));
    }
    std::remove(path.c_str());
    for (size_t s = 0; s < 3; ++s) {
      std::remove((path + ".shard-" + std::to_string(s)).c_str());
    }
  }
}

TEST(ShardedLakeIndexTest, Sq8ManifestRoundTrip) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(40, dim, 9);
  IndexOptions options;
  options.storage = Storage::kSq8;
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3, options);
  std::string path = testing::TempDir() + "/tsfm_sharded_sq8.laks";
  ThreadPool pool(3);
  ASSERT_TRUE(index.Save(path, &pool).ok());

  auto loaded = ShardedLakeIndex::Load(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().storage, Storage::kSq8);
  EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
  // Shard files persist codec + codes, so the loaded index ranks exactly
  // like the writer.
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5));
  }
  for (const auto& q : corpus.union_queries) {
    EXPECT_EQ(loaded.value().QueryUnionable(q, 5), index.QueryUnionable(q, 5));
  }
  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard-" + std::to_string(s)).c_str());
  }
}

TEST(ShardedLakeIndexTest, MixedStorageShardsRejected) {
  // A manifest that says sq8 but points at a float32 shard file (or vice
  // versa) is corrupt; loading must fail with a clear ParseError, not
  // silently mix representations.
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 10);
  IndexOptions sq8;
  sq8.storage = Storage::kSq8;
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3, sq8);
  std::string path = testing::TempDir() + "/tsfm_sharded_mixed.laks";
  ASSERT_TRUE(index.Save(path).ok());

  // Overwrite shard 1 with a float32 lake of the same dim.
  Rng rng(11);
  LakeIndex imposter(dim);
  imposter.AddTable("imposter", {RandomVec(&rng, dim)});
  ASSERT_TRUE(imposter.Save(path + ".shard-1").ok());

  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().ToString().find("storage"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard-" + std::to_string(s)).c_str());
  }
}

TEST(ShardedLakeIndexTest, Sq8RecallAtTenVersusFloatFlat) {
  // Acceptance bar for quantized storage: after exact rescore, sharded sq8
  // recall@10 against the float32 flat gold standard is at least 0.99.
  const size_t dim = 32, k = 10;
  Corpus corpus = MakeCorpus(300, dim, 12);
  UnshardedReference flat_gold(corpus, dim);
  IndexOptions sq8;
  sq8.storage = Storage::kSq8;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards, sq8);
    double recall_sum = 0;
    for (const auto& q : corpus.join_queries) {
      auto gold = flat_gold.QueryJoinable(q, k);
      ASSERT_GE(gold.size(), k);
      recall_sum += RecallAtK(gold, sharded.QueryJoinable(q, k), k);
    }
    EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()),
              0.99)
        << shards << " shards";
  }
}

TEST(ShardedLakeIndexTest, MissingShardFileIsAnErrorNotACrash) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 5);
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3);
  std::string path = testing::TempDir() + "/tsfm_sharded_missing.laks";
  ASSERT_TRUE(index.Save(path).ok());
  ASSERT_EQ(std::remove((path + ".shard-1").c_str()), 0);
  auto loaded = ShardedLakeIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
  std::remove((path + ".shard-0").c_str());
  std::remove((path + ".shard-2").c_str());
}

TEST(ShardedLakeIndexTest, TruncatedManifestIsAnErrorNotACrash) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 6);
  ShardedLakeIndex index = BuildSharded(corpus, dim, 2);
  std::string path = testing::TempDir() + "/tsfm_sharded_trunc.laks";
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Truncate at every prefix boundary that cuts the header or a shard name;
  // none may crash and all must fail.
  for (size_t keep : {size_t{6}, size_t{20}, bytes.size() / 2}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(ShardedLakeIndex::Load(path).ok()) << "kept " << keep;
  }
  // A well-formed header whose table count (2^32) the file cannot hold must
  // be rejected before the locator is allocated (2^32 records would be a
  // 64 GiB vector).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    auto put = [&out](auto v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(kLakeManifestMagic);
    put(uint32_t{1});  // version
    put(uint32_t{0});  // backend: flat
    put(uint32_t{0});  // metric: cosine
    put(uint64_t{dim});
    put(uint64_t{1});  // one shard file...
    put(uint64_t{1});  // ...whose name is one byte long
    out.write("x", 1);
    put(uint64_t{1} << 32);  // num_tables
  }
  auto hostile = ShardedLakeIndex::Load(path);
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
  std::remove((path + ".shard-0").c_str());
  std::remove((path + ".shard-1").c_str());
}

TEST(ShardedLakeIndexTest, LegacyLak2FileLoadsAsOneShard) {
  const size_t dim = 10;
  Corpus corpus = MakeCorpus(25, dim, 7);
  LakeIndex single = BuildSingle(corpus, dim);
  std::string path = testing::TempDir() + "/tsfm_sharded_legacy_lak2.bin";
  ASSERT_TRUE(single.Save(path).ok());
  const ShardedLakeIndex writer = ShardedLakeIndex::FromSingle(std::move(single));

  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_shards(), 1u);
  EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 5), writer.QueryJoinable(q, 5));
  }
  std::remove(path.c_str());
}

TEST(ShardedLakeIndexTest, LegacyHeaderlessLakeFileLoadsAsOneShard) {
  // The oldest format: magic "LAKE", dim, table records, no backend
  // metadata. It must come up as a 1-shard flat index.
  std::string path = testing::TempDir() + "/tsfm_sharded_legacy_lake.bin";
  {
    std::ofstream out(path, std::ios::binary);
    uint32_t magic = 0x4c414b45;  // "LAKE"
    uint64_t dim = 2, num_tables = 2;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&num_tables), sizeof(num_tables));
    const std::vector<std::pair<std::string, std::vector<float>>> tables = {
        {"alpha", {1, 0}}, {"beta", {0, 1}}};
    for (const auto& [id, col] : tables) {
      uint64_t id_len = id.size(), num_cols = 1;
      out.write(reinterpret_cast<const char*>(&id_len), sizeof(id_len));
      out.write(id.data(), static_cast<std::streamsize>(id_len));
      out.write(reinterpret_cast<const char*>(&num_cols), sizeof(num_cols));
      out.write(reinterpret_cast<const char*>(col.data()),
                static_cast<std::streamsize>(col.size() * sizeof(float)));
    }
  }
  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_shards(), 1u);
  EXPECT_EQ(loaded.value().options().backend, IndexBackend::kFlat);
  auto ranked = loaded.value().QueryJoinable({1, 0}, 2);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "alpha");
  std::remove(path.c_str());
}

TEST(ShardedLakeIndexTest, GarbageAndMissingFilesRejected) {
  std::string path = testing::TempDir() + "/tsfm_sharded_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an index of any vintage";
  }
  EXPECT_FALSE(ShardedLakeIndex::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(ShardedLakeIndex::Load("/nonexistent/lake.laks").ok());
}

TEST(ShardedLakeIndexTest, HandlesAssignedInInsertionOrder) {
  const size_t dim = 4;
  ShardedLakeIndex index(dim, 4);
  Rng rng(8);
  for (size_t t = 0; t < 20; ++t) {
    size_t handle = index.AddTable("t" + std::to_string(t),
                                   {RandomVec(&rng, dim)});
    EXPECT_EQ(handle, t);
    EXPECT_EQ(index.table_id(handle), "t" + std::to_string(t));
  }
  size_t total = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) total += index.shard_size(s);
  EXPECT_EQ(total, 20u);
}

TEST(ShardedLakeIndexTest, EmptyIndexQueriesAreEmpty) {
  ShardedLakeIndex index(4, 3);
  EXPECT_TRUE(index.QueryJoinable({1, 0, 0, 0}, 5).empty());
  EXPECT_TRUE(index.QueryUnionable({{1, 0, 0, 0}}, 5).empty());
}

}  // namespace
}  // namespace tsfm::search
