#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "search/lake_index.h"
#include "search/sharded_lake_index.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

// LakeIndex is the shard segment and file codec; queries go through the
// lake that owns it, here a 1-shard ShardedLakeIndex.
LakeIndex MakeToyIndex(const IndexOptions& options = {}) {
  LakeIndex index(3, options);
  index.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
  index.AddTable("sales_q2", {{0.9f, 0.1f, 0}, {0, 0.9f, 0.1f}});
  index.AddTable("weather", {{0, 0, 1}});
  return index;
}

ShardedLakeIndex MakeToyLake() {
  return ShardedLakeIndex::FromSingle(MakeToyIndex());
}

TEST(LakeIndexTest, JoinQueryRanksByNearestColumn) {
  ShardedLakeIndex index = MakeToyLake();
  auto ranked = index.QueryJoinable({1, 0, 0}, 3);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], "sales_q1");
  EXPECT_EQ(ranked[1], "sales_q2");
}

TEST(LakeIndexTest, UnionQueryUsesAllColumns) {
  ShardedLakeIndex index = MakeToyLake();
  auto ranked = index.QueryUnionable({{1, 0, 0}, {0, 1, 0}}, 3);
  ASSERT_GE(ranked.size(), 2u);
  // sales_q1 matches both query columns exactly.
  EXPECT_EQ(ranked[0], "sales_q1");
}

TEST(LakeIndexTest, RespectsK) {
  ShardedLakeIndex index = MakeToyLake();
  EXPECT_LE(index.QueryJoinable({1, 0, 0}, 1).size(), 1u);
}

TEST(LakeIndexTest, SaveLoadRoundTrip) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_index.bin";
  ASSERT_TRUE(index.Save(path).ok());

  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_tables(), 3u);
  EXPECT_EQ(loaded.value().dim(), 3u);
  auto ranked = loaded.value().QueryJoinable({1, 0, 0}, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "sales_q1");
  std::remove(path.c_str());
}

TEST(LakeIndexTest, SaveLoadRoundTripBothBackends) {
  for (auto backend : {search::IndexBackend::kFlat, search::IndexBackend::kHnsw}) {
    IndexOptions options;
    options.backend = backend;
    options.hnsw.ef_search = 96;
    LakeIndex index = MakeToyIndex(options);

    std::string path = testing::TempDir() + "/tsfm_lake_backend.bin";
    ASSERT_TRUE(index.Save(path).ok());
    auto loaded = ShardedLakeIndex::Load(path);
    ASSERT_TRUE(loaded.ok());
    // The backend choice survives the file format round trip.
    EXPECT_EQ(loaded.value().options().backend, backend);
    EXPECT_EQ(loaded.value().options().hnsw.ef_search, 96u);
    EXPECT_EQ(loaded.value().num_tables(), 3u);
    auto ranked = loaded.value().QueryJoinable({1, 0, 0}, 3);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0], "sales_q1");
    std::remove(path.c_str());
  }
}

TEST(LakeIndexTest, Sq8SaveLoadRoundTrip) {
  IndexOptions options;
  options.storage = Storage::kSq8;
  LakeIndex segment = MakeToyIndex(options);

  std::string path = testing::TempDir() + "/tsfm_lake_sq8.bin";
  ASSERT_TRUE(segment.Save(path).ok());
  const ShardedLakeIndex index = ShardedLakeIndex::FromSingle(std::move(segment));
  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().storage, Storage::kSq8);
  EXPECT_EQ(loaded.value().num_tables(), 3u);
  // The restored index (persisted codec + replayed rows) must rank exactly
  // like the one that wrote the file.
  for (const std::vector<float> q :
       {std::vector<float>{1, 0, 0}, {0, 1, 0}, {0.5f, 0.5f, 0}}) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 3), index.QueryJoinable(q, 3));
  }
  std::remove(path.c_str());
}

TEST(LakeIndexTest, Sq8RoundTripFaithfulAfterPostTrainingAdds) {
  // Adds after the first query encode through the already-trained codec;
  // the file persists that codec, so the restored index must reproduce the
  // writer's results even though re-training over all rows would have
  // produced a different calibration.
  IndexOptions options;
  options.storage = Storage::kSq8;
  LakeIndex segment(3, options);
  segment.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
  (void)segment.SearchColumnsBatch({{1, 0, 0}}, 1);  // trains the codec
  segment.AddTable("outlier", {{9, -9, 9}});  // outside the calibrated range

  std::string path = testing::TempDir() + "/tsfm_lake_sq8_posttrain.bin";
  ASSERT_TRUE(segment.Save(path).ok());
  const ShardedLakeIndex index = ShardedLakeIndex::FromSingle(std::move(segment));
  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const std::vector<float> q :
       {std::vector<float>{1, 0, 0}, {9, -9, 9}}) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 3), index.QueryJoinable(q, 3));
  }
  std::remove(path.c_str());
}

TEST(LakeIndexTest, FloatFilesStayOnVersionTwo) {
  // A float32 index must keep writing the exact version-2 header so
  // pre-sq8 readers keep loading it; only sq8 files get the new version.
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_v2check.bin";
  ASSERT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  EXPECT_EQ(magic, 0x4c414b32u);  // "LAK2"
  EXPECT_EQ(version, 2u);
  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().storage, Storage::kFloat32);
  std::remove(path.c_str());
}

TEST(LakeIndexTest, LoadsLegacyHeaderlessFormat) {
  // Files written before the versioned header: magic "LAKE", then dim and
  // the table records, with no backend metadata. They must load as flat.
  std::string path = testing::TempDir() + "/tsfm_lake_legacy.bin";
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
  EXPECT_EQ(loaded.value().options().backend, search::IndexBackend::kFlat);
  EXPECT_EQ(loaded.value().num_tables(), 2u);
  auto ranked = loaded.value().QueryJoinable({1, 0}, 2);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "alpha");
  std::remove(path.c_str());
}

TEST(LakeIndexTest, BatchQueriesMatchSerial) {
  ShardedLakeIndex index = MakeToyLake();
  std::vector<std::vector<float>> join_queries = {
      {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::vector<std::vector<float>>> union_queries = {
      {{1, 0, 0}, {0, 1, 0}}, {{0, 0, 1}}};
  ThreadPool pool(2);
  auto join_batch = index.QueryJoinableBatch(join_queries, 3, &pool);
  ASSERT_EQ(join_batch.size(), join_queries.size());
  for (size_t q = 0; q < join_queries.size(); ++q) {
    EXPECT_EQ(join_batch[q], index.QueryJoinable(join_queries[q], 3));
  }
  auto union_batch = index.QueryUnionableBatch(union_queries, 3, &pool);
  ASSERT_EQ(union_batch.size(), union_queries.size());
  for (size_t q = 0; q < union_queries.size(); ++q) {
    EXPECT_EQ(union_batch[q], index.QueryUnionable(union_queries[q], 3));
  }
}

// A valid version-2 "LAK2" header (flat, cosine, dim 4) and one table
// record whose id length and column count come from the caller.
void WriteHostileTableRecord(const std::string& path, uint64_t id_len,
                             const std::string& id, uint64_t num_cols) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  auto put = [&](auto value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint32_t{0x4c414b32});  // "LAK2"
  put(uint32_t{2});           // version
  put(uint32_t{0});           // backend: flat
  put(uint32_t{0});           // metric: cosine
  for (uint64_t hnsw_knob : {16, 200, 64, 42}) put(hnsw_knob);
  put(uint64_t{4});  // dim
  put(uint64_t{1});  // num_tables
  put(id_len);
  out.write(id.data(), static_cast<std::streamsize>(id.size()));
  put(num_cols);
  const std::vector<float> col(4, 0.5f);
  out.write(reinterpret_cast<const char*>(col.data()),
            static_cast<std::streamsize>(col.size() * sizeof(float)));
}

TEST(LakeIndexTest, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/tsfm_lake_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage bytes here";
  }
  EXPECT_FALSE(LakeIndex::Load(path).ok());
  // Hostile lengths in an otherwise well-formed ~100-byte file must be a
  // ParseError, not an allocation the size of the claim.
  WriteHostileTableRecord(path, uint64_t{1} << 61, "", 1);
  auto long_id = LakeIndex::Load(path);
  EXPECT_EQ(long_id.status().code(), StatusCode::kParseError)
      << long_id.status().ToString();
  WriteHostileTableRecord(path, 3, "abc", uint64_t{1} << 40);
  auto many_cols = LakeIndex::Load(path);
  EXPECT_EQ(many_cols.status().code(), StatusCode::kParseError)
      << many_cols.status().ToString();
  // Sanity: the same record with honest lengths loads.
  WriteHostileTableRecord(path, 3, "abc", 1);
  EXPECT_TRUE(LakeIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(LakeIndexTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LakeIndex::Load("/nonexistent/lake.bin").ok());
}

TEST(LakeIndexTest, EmptyIndexQueriesAreEmpty) {
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(LakeIndex(4));
  EXPECT_TRUE(index.QueryJoinable({1, 0, 0, 0}, 5).empty());
  EXPECT_TRUE(index.QueryUnionable({{1, 0, 0, 0}}, 5).empty());
}

}  // namespace
}  // namespace tsfm::search
