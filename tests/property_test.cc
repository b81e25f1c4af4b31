// Property-style suites: parameterized sweeps over invariants that must
// hold for every input size / overlap / configuration, plus failure
// injection for contract violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <tuple>

#include "core/embedder.h"
#include "core/model.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "search/metrics.h"
#include "search/sharded_lake_index.h"
#include "search/stream_io.h"
#include "search/table_ranker.h"
#include "server/protocol.h"
#include "sketch/table_sketch.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/random.h"

namespace tsfm {
namespace {

// ------------------------------------------------ 1-bit MinHash properties

class OneBitMinHashTest : public testing::TestWithParam<int> {};

TEST_P(OneBitMinHashTest, CosineTracksJaccard) {
  // cos(a, b) of 1-bit minhash vectors estimates J: matching slots
  // contribute +1, non-matching slots have independent bits (mean 0).
  const int overlap = GetParam();
  const int n = 100;
  Column a, b;
  a.type = b.type = ColumnType::kString;
  for (int i = 0; i < n; ++i) {
    a.cells.push_back("v" + std::to_string(i));
    b.cells.push_back("v" + std::to_string(i + n - overlap));
  }
  SketchOptions opt;
  opt.num_perm = 256;
  Table ta("a", ""), tb("b", "");
  ta.AddColumn(a.name, a.cells);
  tb.AddColumn(b.name, b.cells);
  ta.InferTypes();
  tb.InferTypes();
  TableSketch sa = BuildTableSketch(ta, opt);
  TableSketch sb = BuildTableSketch(tb, opt);
  auto va = sa.columns[0].OneBitMinHashInput();
  auto vb = sb.columns[0].OneBitMinHashInput();

  double dot = 0;
  for (size_t i = 0; i < va.size(); ++i) dot += va[i] * vb[i];
  double cosine = dot / static_cast<double>(va.size());

  double true_jaccard = static_cast<double>(overlap) / (2 * n - overlap);
  EXPECT_NEAR(cosine, true_jaccard, 0.15);
}

INSTANTIATE_TEST_SUITE_P(Overlaps, OneBitMinHashTest,
                         testing::Values(0, 25, 50, 75, 100));

TEST(OneBitMinHashTest, ValuesAreSigns) {
  Column c;
  c.cells = {"x", "y", "z"};
  Table t("t", "");
  t.AddColumn("c", c.cells);
  t.InferTypes();
  TableSketch s = BuildTableSketch(t);
  for (float v : s.columns[0].OneBitMinHashInput()) {
    EXPECT_TRUE(v == 1.0f || v == -1.0f);
  }
}

// -------------------------------------------------- Model projections

TEST(ModelProjectionTest, LinearInInput) {
  core::TabSketchFMConfig config;
  config.encoder.hidden = 16;
  config.encoder.num_layers = 1;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 32;
  config.vocab_size = 30;
  config.num_perm = 8;
  Rng rng(1);
  core::TabSketchFM model(config, &rng);

  std::vector<float> zero(config.MinHashInputDim(), 0.0f);
  std::vector<float> x(config.MinHashInputDim(), 0.5f);
  auto pz = model.ProjectMinHash(zero);
  auto px = model.ProjectMinHash(x);
  // Linear layer: f(0) = bias; f(x) != f(0) for generic x.
  EXPECT_EQ(pz.size(), config.encoder.hidden);
  EXPECT_NE(pz, px);

  std::vector<float> nz(config.NumericalInputDim(), 0.0f);
  EXPECT_EQ(model.ProjectNumerical(nz).size(), config.encoder.hidden);
}

// ------------------------------------------------- Metrics invariants

class MetricsBoundsTest : public testing::TestWithParam<size_t> {};

TEST_P(MetricsBoundsTest, PrecisionRecallF1InUnitInterval) {
  const size_t k = GetParam();
  Rng rng(k);
  std::vector<size_t> ranked(20);
  std::iota(ranked.begin(), ranked.end(), size_t{0});
  rng.Shuffle(&ranked);
  std::vector<size_t> gold;
  for (size_t g = 0; g < 7; ++g) gold.push_back(rng.Uniform(25));

  search::RankedMetrics m = search::MetricsAtK(ranked, gold, k);
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 1.0);
  EXPECT_GE(m.recall, 0.0);
  EXPECT_LE(m.recall, 1.0);
  EXPECT_GE(m.f1, 0.0);
  EXPECT_LE(m.f1, 1.0);
  // F1 is the harmonic mean: bounded by both components.
  EXPECT_LE(m.f1, std::max(m.precision, m.recall) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Ks, MetricsBoundsTest, testing::Values(1, 3, 5, 10, 50));

TEST(MetricsInvariantTest, RecallMonotoneInK) {
  std::vector<size_t> ranked = {4, 1, 9, 2, 7, 0, 3};
  std::vector<size_t> gold = {1, 2, 3};
  double prev = 0.0;
  for (size_t k = 1; k <= ranked.size(); ++k) {
    double r = search::MetricsAtK(ranked, gold, k).recall;
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(MetricsInvariantTest, WeightedF1PermutationInvariant) {
  std::vector<int> y_true = {0, 1, 1, 0, 1, 0};
  std::vector<int> y_pred = {0, 1, 0, 0, 1, 1};
  double base = search::WeightedF1(y_true, y_pred, 2);
  // Permute example order consistently; metric must not change.
  std::vector<size_t> perm = {5, 3, 1, 0, 4, 2};
  std::vector<int> t2, p2;
  for (size_t i : perm) {
    t2.push_back(y_true[i]);
    p2.push_back(y_pred[i]);
  }
  EXPECT_DOUBLE_EQ(search::WeightedF1(t2, p2, 2), base);
}

// --------------------------------------------- Tokenizer round-trip sweep

class TokenizerRoundTripTest : public testing::TestWithParam<const char*> {};

TEST_P(TokenizerRoundTripTest, EncodeDecodeRecoversKnownText) {
  std::string input = GetParam();
  std::vector<std::string> words = text::BasicTokenize(input);
  text::Vocab vocab = text::Vocab::Build(words);
  text::Tokenizer tokenizer(&vocab);
  EXPECT_EQ(tokenizer.Decode(tokenizer.Encode(input)),
            [&] {
              std::string joined;
              for (const auto& w : words) {
                if (!joined.empty()) joined += " ";
                joined += w;
              }
              return joined;
            }());
}

INSTANTIATE_TEST_SUITE_P(Texts, TokenizerRoundTripTest,
                         testing::Values("reference area", "obs value 42",
                                         "residential properties age",
                                         "import export trade flows",
                                         "a b c d e"));

// -------------------------------------------------- Optimizer invariants

TEST(OptimizerPropertyTest, ZeroGradMeansNoWeightChangeExceptDecay) {
  Rng rng(2);
  nn::Linear lin(3, 3, &rng);
  nn::AdamW::Options opt;
  opt.lr = 0.1f;
  opt.weight_decay = 0.0f;
  nn::AdamW optimizer(lin.Params("m"), opt);
  nn::Tensor before = lin.weight()->value();
  optimizer.ZeroGrad();
  optimizer.Step();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(lin.weight()->value()[i], before[i]);
  }
}

TEST(OptimizerPropertyTest, WeightDecayShrinksWeights) {
  Rng rng(3);
  nn::Linear lin(4, 4, &rng);
  nn::AdamW::Options opt;
  opt.lr = 0.1f;
  opt.weight_decay = 0.5f;
  nn::AdamW optimizer(lin.Params("m"), opt);
  float norm_before = lin.weight()->value().Norm();
  optimizer.ZeroGrad();
  optimizer.Step();
  EXPECT_LT(lin.weight()->value().Norm(), norm_before);
}

// ------------------------------------------------ Dropout scaling sweep

class DropoutScaleTest : public testing::TestWithParam<float> {};

TEST_P(DropoutScaleTest, ExpectationPreserved) {
  const float p = GetParam();
  Rng rng(4);
  nn::Var x = nn::MakeLeaf(nn::Tensor(1, 5000, 1.0f), false);
  nn::Var y = nn::Dropout(x, p, /*training=*/true, &rng);
  EXPECT_NEAR(y->value().Mean(), 1.0f, 0.12f);
}

INSTANTIATE_TEST_SUITE_P(Rates, DropoutScaleTest,
                         testing::Values(0.1f, 0.25f, 0.5f, 0.75f));

// ------------------------------------------- K-way top-k merge properties

using ColumnHit = search::ColumnEmbeddingIndex::ColumnHit;

std::tuple<float, size_t, size_t> HitKey(const ColumnHit& h) {
  return {h.distance, h.table_id, h.column_index};
}

// Random sorted hit lists with globally unique (table, column) pairs — the
// shape per-shard candidate lists have, since shards partition columns.
std::vector<std::vector<ColumnHit>> RandomHitLists(size_t num_lists,
                                                   size_t max_len, Rng* rng) {
  std::vector<std::vector<ColumnHit>> lists(num_lists);
  size_t next_table = 0;
  for (auto& list : lists) {
    size_t len = rng->Uniform(static_cast<uint32_t>(max_len + 1));
    for (size_t i = 0; i < len; ++i) {
      list.push_back({next_table++, rng->Uniform(4),
                      static_cast<float>(rng->UniformDouble(0, 2))});
    }
    std::sort(list.begin(), list.end(), [](const ColumnHit& a, const ColumnHit& b) {
      return HitKey(a) < HitKey(b);
    });
  }
  return lists;
}

class MergeColumnHitsTest : public testing::TestWithParam<size_t> {};

TEST_P(MergeColumnHitsTest, EqualsSortedConcatenationTruncated) {
  const size_t k = GetParam();
  Rng rng(40 + k);
  for (int trial = 0; trial < 10; ++trial) {
    auto lists = RandomHitLists(1 + rng.Uniform(6u), 12, &rng);
    std::vector<ColumnHit> all;
    for (const auto& list : lists) all.insert(all.end(), list.begin(), list.end());
    std::sort(all.begin(), all.end(), [](const ColumnHit& a, const ColumnHit& b) {
      return HitKey(a) < HitKey(b);
    });
    if (all.size() > k) all.resize(k);

    auto merged = search::TableRanker::MergeColumnHits(lists, k);
    ASSERT_EQ(merged.size(), all.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(HitKey(merged[i]), HitKey(all[i]));
    }
  }
}

TEST_P(MergeColumnHitsTest, InvariantToInputListOrder) {
  const size_t k = GetParam();
  Rng rng(50 + k);
  auto lists = RandomHitLists(5, 10, &rng);
  auto base = search::TableRanker::MergeColumnHits(lists, k);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<size_t> perm(lists.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    rng.Shuffle(&perm);
    std::vector<std::vector<ColumnHit>> shuffled;
    for (size_t i : perm) shuffled.push_back(lists[i]);
    auto merged = search::TableRanker::MergeColumnHits(shuffled, k);
    ASSERT_EQ(merged.size(), base.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(HitKey(merged[i]), HitKey(base[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, MergeColumnHitsTest, testing::Values(1, 5, 20, 100));

// ------------------------------------------- Shard routing properties

class ShardRoutingTest : public testing::TestWithParam<size_t> {};

TEST_P(ShardRoutingTest, StablePartitionAcrossRebuilds) {
  const size_t num_shards = GetParam();
  const size_t dim = 4, num_tables = 120;
  Rng rng(60);
  std::vector<std::string> ids;
  for (size_t t = 0; t < num_tables; ++t) {
    ids.push_back("tbl_" + std::to_string(rng.Uniform(1u << 20)) + "_" +
                  std::to_string(t));
  }
  auto build = [&] {
    search::ShardedLakeIndex index(dim, num_shards);
    Rng vec_rng(61);
    for (const auto& id : ids) {
      std::vector<float> v(dim);
      for (auto& x : v) x = static_cast<float>(vec_rng.Normal());
      index.AddTable(id, {v});
    }
    return index;
  };
  search::ShardedLakeIndex first = build();
  search::ShardedLakeIndex second = build();

  // Every table lands in exactly one shard: shard sizes sum to the total.
  size_t total = 0;
  for (size_t s = 0; s < first.num_shards(); ++s) total += first.shard_size(s);
  EXPECT_EQ(total, num_tables);

  for (const auto& id : ids) {
    const size_t shard = first.shard_of(id);
    EXPECT_LT(shard, first.num_shards());
    // Same shard across rebuilds, and identical to the bare routing hash.
    EXPECT_EQ(second.shard_of(id), shard);
    EXPECT_EQ(StableShard(id, num_shards), shard);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardRoutingTest,
                         testing::Values(1, 2, 3, 8));

// ----------------------------------------------------- Failure injection

using PropertyDeathTest = testing::Test;

TEST(PropertyDeathTest, MatMulShapeMismatchAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nn::Var a = nn::MakeLeaf(nn::Tensor(2, 3), false);
  nn::Var b = nn::MakeLeaf(nn::Tensor(4, 2), false);
  EXPECT_DEATH({ nn::MatMul(a, b); }, "Check failed");
}

TEST(PropertyDeathTest, EmbeddingOutOfRangeAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nn::Var w = nn::MakeLeaf(nn::Tensor(5, 2), false);
  EXPECT_DEATH({ nn::EmbeddingLookup(w, {7}); }, "Check failed");
}

TEST(PropertyDeathTest, BackwardRequiresScalarLoss) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  nn::Var x = nn::MakeLeaf(nn::Tensor(2, 2), true);
  nn::Var y = nn::Scale(x, 2.0f);
  EXPECT_DEATH({ nn::Backward(y); }, "Check failed");
}

TEST(PropertyDeathTest, MinHashSizeMismatchAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  MinHash a(16), b(32);
  EXPECT_DEATH({ a.EstimateJaccard(b); }, "Check failed");
}

// ---------------------------------------- Checkpoint failure injection

TEST(CheckpointFailureTest, TruncatedFileRejected) {
  Rng rng(5);
  nn::Linear lin(4, 4, &rng);
  std::string path = testing::TempDir() + "/tsfm_trunc.bin";
  ASSERT_TRUE(nn::SaveCheckpoint(lin.Params("m"), path).ok());
  // Truncate the file to half.
  {
    std::string data;
    {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      data = ss.str();
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_FALSE(nn::LoadCheckpoint(lin.Params("m"), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointFailureTest, GarbageMagicRejected) {
  Rng rng(6);
  nn::Linear lin(2, 2, &rng);
  std::string path = testing::TempDir() + "/tsfm_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  auto status = nn::LoadCheckpoint(lin.Params("m"), path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

// --------------------------------------- server wire-protocol round trips
//
// Every message the server and client can exchange must encode->decode to
// an identical value, across all opcodes and the degenerate shapes (zero
// queries, zero k, empty ids, error statuses); and no proper prefix of an
// encoding may decode successfully — a truncated payload is a parse error,
// never a crash or a silently misparsed message.

server::Request RandomRequest(Rng* rng) {
  server::Request request;
  switch (rng->UniformInt(0, 8)) {
    case 0: request.op = server::Opcode::kJoin; break;
    case 1: request.op = server::Opcode::kUnion; break;
    case 2: request.op = server::Opcode::kStats; break;
    case 3: request.op = server::Opcode::kShardQuery; break;
    case 4: request.op = server::Opcode::kHealth; break;
    case 5: request.op = server::Opcode::kShardTables; break;
    case 6: request.op = server::Opcode::kAddTable; break;
    case 7: request.op = server::Opcode::kRemoveTable; break;
    default: request.op = server::Opcode::kCompact; break;
  }
  // Messages travel at the lowest version that can carry them (what
  // LakeClient sends); round trips must preserve that.
  request.version = server::RequiredVersion(request.op);
  if (request.op == server::Opcode::kStats ||
      request.op == server::Opcode::kHealth ||
      request.op == server::Opcode::kShardTables ||
      request.op == server::Opcode::kCompact) {
    return request;
  }
  if (request.op == server::Opcode::kAddTable ||
      request.op == server::Opcode::kRemoveTable) {
    // Mutations carry a table id (empty ids must survive the wire too);
    // ingest adds the new table's columns but no k.
    if (rng->UniformInt(0, 4) != 0) {
      request.table_id = "tbl_" + std::to_string(rng->UniformInt(0, 999));
    }
    if (request.op == server::Opcode::kAddTable) {
      request.columns.resize(static_cast<size_t>(rng->UniformInt(0, 3)));
      size_t dim = static_cast<size_t>(rng->UniformInt(0, 8));
      for (auto& column : request.columns) {
        column.resize(dim);
        for (auto& x : column) x = static_cast<float>(rng->Normal());
      }
    }
    return request;
  }
  request.k = static_cast<uint32_t>(rng->UniformInt(0, 50));
  size_t num_columns = request.op == server::Opcode::kJoin
                           ? 1
                           : static_cast<size_t>(rng->UniformInt(0, 4));
  size_t dim = static_cast<size_t>(rng->UniformInt(0, 8));
  request.columns.resize(num_columns);
  for (auto& column : request.columns) {
    column.resize(dim);
    for (auto& x : column) x = static_cast<float>(rng->Normal());
  }
  return request;
}

server::Response RandomResponse(Rng* rng) {
  server::Response response;
  switch (rng->UniformInt(0, 8)) {
    case 0: response.op = server::Opcode::kJoin; break;
    case 1: response.op = server::Opcode::kUnion; break;
    case 2: response.op = server::Opcode::kStats; break;
    case 3: response.op = server::Opcode::kShardQuery; break;
    case 4: response.op = server::Opcode::kHealth; break;
    case 5: response.op = server::Opcode::kShardTables; break;
    case 6: response.op = server::Opcode::kAddTable; break;
    case 7: response.op = server::Opcode::kRemoveTable; break;
    default: response.op = server::Opcode::kCompact; break;
  }
  response.version = server::RequiredVersion(response.op);
  if (rng->UniformInt(0, 3) == 0) {
    response.status = StatusCode::kInvalidArgument;
    response.message = "injected failure #" + std::to_string(rng->UniformInt(0, 99));
    return response;
  }
  if (response.op == server::Opcode::kStats) {
    response.stats.requests = static_cast<uint64_t>(rng->UniformInt(0, 1000));
    response.stats.batches = static_cast<uint64_t>(rng->UniformInt(0, 100));
    response.stats.max_batch = static_cast<uint64_t>(rng->UniformInt(0, 64));
    response.stats.total_queue_wait_ms = rng->UniformDouble(0, 10);
    response.stats.total_latency_ms = rng->UniformDouble(0, 10);
    // Half the time, upgrade to a v3 stats frame carrying churn counters —
    // the shape a v3 client's Stats() call elicits.
    if (rng->Bernoulli(0.5)) {
      response.version = server::kProtocolVersion;
      response.stats.pending_delta_tables =
          static_cast<uint64_t>(rng->UniformInt(0, 50));
      response.stats.pending_tombstones =
          static_cast<uint64_t>(rng->UniformInt(0, 50));
      response.stats.compactions = static_cast<uint64_t>(rng->UniformInt(0, 9));
    }
    return response;
  }
  if (response.op == server::Opcode::kAddTable ||
      response.op == server::Opcode::kRemoveTable ||
      response.op == server::Opcode::kCompact) {
    return response;  // mutation acks travel as empty id lists
  }
  if (response.op == server::Opcode::kHealth) {
    response.health.protocol_version = server::kProtocolVersion;
    response.health.backend = static_cast<uint8_t>(rng->UniformInt(0, 1));
    response.health.metric = static_cast<uint8_t>(rng->UniformInt(0, 1));
    response.health.dim = static_cast<uint64_t>(rng->UniformInt(1, 256));
    response.health.num_tables = static_cast<uint64_t>(rng->UniformInt(0, 500));
    response.health.num_columns = static_cast<uint64_t>(rng->UniformInt(0, 900));
    return response;
  }
  if (response.op == server::Opcode::kShardQuery) {
    size_t lists = static_cast<size_t>(rng->UniformInt(0, 3));
    response.hits.resize(lists);
    for (auto& list : response.hits) {
      size_t n = static_cast<size_t>(rng->UniformInt(0, 5));
      for (size_t i = 0; i < n; ++i) {
        list.push_back({static_cast<uint64_t>(rng->UniformInt(0, 999)),
                        static_cast<uint32_t>(rng->UniformInt(0, 7)),
                        static_cast<float>(rng->UniformDouble(0, 2))});
      }
    }
    return response;
  }
  size_t n = static_cast<size_t>(rng->UniformInt(0, 6));
  for (size_t i = 0; i < n; ++i) {
    // Include the empty string: a zero-length table id must survive the wire.
    response.ids.push_back(i == 0 ? "" : "tbl_" + std::to_string(rng->UniformInt(0, 999)));
  }
  return response;
}

class ProtocolRoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolRoundTripTest, RequestsSurviveTheWire) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    server::Request request = RandomRequest(&rng);
    std::string payload = server::SerializeRequest(request);
    std::istringstream in(payload);
    server::Request decoded;
    ASSERT_TRUE(server::DecodeRequest(in, &decoded).ok());
    EXPECT_EQ(decoded, request);
  }
}

TEST_P(ProtocolRoundTripTest, ResponsesSurviveTheWire) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    server::Response response = RandomResponse(&rng);
    std::string payload = server::SerializeResponse(response);
    std::istringstream in(payload);
    server::Response decoded;
    ASSERT_TRUE(server::DecodeResponse(in, &decoded).ok());
    EXPECT_EQ(decoded, response);
  }
}

TEST_P(ProtocolRoundTripTest, NoProperPrefixOfAQueryRequestDecodes) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 10; ++i) {
    server::Request request = RandomRequest(&rng);
    // Header-only opcodes (STATS/HEALTH/SHARD_TABLES/COMPACT) are 2-byte
    // payloads with no proper prefix worth cutting.
    if (request.columns.empty() && request.k == 0 &&
        (request.op == server::Opcode::kStats ||
         request.op == server::Opcode::kHealth ||
         request.op == server::Opcode::kShardTables ||
         request.op == server::Opcode::kCompact)) {
      continue;
    }
    std::string payload = server::SerializeRequest(request);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      std::istringstream in(payload.substr(0, cut));
      server::Request decoded;
      EXPECT_FALSE(server::DecodeRequest(in, &decoded).ok())
          << "prefix of " << cut << "/" << payload.size() << " bytes decoded";
    }
  }
}

// A RequestView over borrowed columns (how LakeClient::ShardQuery sends a
// SHARD_QUERY) must put the same bytes on the wire as the Request holding
// copies of them, and those bytes must be the documented layout: version,
// opcode, u32 k, u32 column count, u32 dim, then the floats column-major.
TEST_P(ProtocolRoundTripTest, BorrowedColumnsEncodeLikeAnOwningRequest) {
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 50; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 4));
    const size_t dim = static_cast<size_t>(rng.UniformInt(1, 9));
    std::vector<std::vector<float>> columns(n, std::vector<float>(dim));
    for (auto& column : columns) {
      for (float& x : column) x = static_cast<float>(rng.Normal());
    }
    const auto k = static_cast<uint32_t>(rng.UniformInt(0, 100));

    server::Request owning;
    owning.version = server::RequiredVersion(server::Opcode::kShardQuery);
    owning.op = server::Opcode::kShardQuery;
    owning.k = k;
    owning.columns = columns;
    const std::string borrowed = server::SerializeRequest(server::RequestView(
        owning.version, server::Opcode::kShardQuery, k, columns));
    EXPECT_EQ(borrowed, server::SerializeRequest(owning));

    std::string layout;
    auto put = [&layout](const auto& pod) {
      layout.append(reinterpret_cast<const char*>(&pod), sizeof(pod));
    };
    put(owning.version);
    put(static_cast<uint8_t>(server::Opcode::kShardQuery));
    put(k);
    put(static_cast<uint32_t>(n));
    put(static_cast<uint32_t>(n == 0 ? 0 : dim));
    for (const auto& column : columns) {
      for (float x : column) put(x);
    }
    EXPECT_EQ(borrowed, layout);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTripTest,
                         testing::Values(1u, 2u, 3u, 4u));

TEST(ProtocolRoundTripTest, ExplicitEdgeCases) {
  // Zero-query union with zero k: the smallest legal query message.
  server::Request empty_union;
  empty_union.op = server::Opcode::kUnion;
  empty_union.k = 0;
  std::string payload = server::SerializeRequest(empty_union);
  std::istringstream in(payload);
  server::Request decoded;
  ASSERT_TRUE(server::DecodeRequest(in, &decoded).ok());
  EXPECT_EQ(decoded, empty_union);
  EXPECT_TRUE(decoded.columns.empty());

  // An OK response with zero results.
  server::Response empty_ok;
  empty_ok.op = server::Opcode::kUnion;
  std::string response_payload = server::SerializeResponse(empty_ok);
  std::istringstream rin(response_payload);
  server::Response rdecoded;
  ASSERT_TRUE(server::DecodeResponse(rin, &rdecoded).ok());
  EXPECT_EQ(rdecoded, empty_ok);

  // A hostile column count must be rejected before any allocation.
  std::ostringstream hostile;
  search::io::WritePod(hostile, server::kProtocolVersion);
  search::io::WritePod(hostile, static_cast<uint8_t>(server::Opcode::kUnion));
  search::io::WritePod(hostile, uint32_t{10});           // k
  search::io::WritePod(hostile, uint32_t{0xFFFFFFFF});   // columns
  search::io::WritePod(hostile, uint32_t{0xFFFFFFFF});   // dim
  std::istringstream hin(hostile.str());
  server::Request hostile_decoded;
  auto status = server::DecodeRequest(hin, &hostile_decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

// ------------------------------------- protocol version compatibility rules
//
// The compatibility contract (src/server/README.md): v1 opcodes travel in
// v1 frames and decode under every supported version; v2 (shard) opcodes
// require v2 frames and v3 (mutation) opcodes v3 frames; versions outside
// [min, current] are rejected; and a newer opcode smuggled into an older
// frame is a parse error, because an old-version-only peer would misparse
// it.

TEST(ProtocolVersionTest, EncodersStampTheLowestVersionThatCarriesTheOpcode) {
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kJoin), 1);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kUnion), 1);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kStats), 1);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kShardQuery), 2);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kHealth), 2);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kShardTables), 2);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kAddTable), 3);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kRemoveTable), 3);
  EXPECT_EQ(server::RequiredVersion(server::Opcode::kCompact), 3);
}

TEST(ProtocolVersionTest, V1OpcodesDecodeUnderAllSupportedVersions) {
  for (uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{3}}) {
    server::Request request;
    request.version = version;
    request.op = server::Opcode::kJoin;
    request.k = 3;
    request.columns = {{1.0f, 2.0f}};
    std::istringstream in(server::SerializeRequest(request));
    server::Request decoded;
    ASSERT_TRUE(server::DecodeRequest(in, &decoded).ok())
        << "version " << int(version);
    EXPECT_EQ(decoded, request);
  }
}

TEST(ProtocolVersionTest, ShardOpcodeInsideAV1FrameIsRejected) {
  server::Request request;
  request.version = 1;  // lies: shard opcodes need version 2
  request.op = server::Opcode::kShardQuery;
  request.k = 5;
  request.columns = {{1.0f, 2.0f}};
  std::istringstream in(server::SerializeRequest(request));
  server::Request decoded;
  auto status = server::DecodeRequest(in, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(ProtocolVersionTest, MutationOpcodesInsideOlderFramesAreRejected) {
  // A v1/v2 peer cannot parse the mutation payloads, so the decoder must
  // refuse the combination outright — a pre-v3 client never hangs on a
  // half-understood ADD_TABLE, it gets a clean parse error.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    for (auto op : {server::Opcode::kAddTable, server::Opcode::kRemoveTable,
                    server::Opcode::kCompact}) {
      server::Request request;
      request.version = version;
      request.op = op;
      request.table_id = "t";
      if (op == server::Opcode::kAddTable) request.columns = {{1.0f, 2.0f}};
      std::istringstream in(server::SerializeRequest(request));
      server::Request decoded;
      auto status = server::DecodeRequest(in, &decoded);
      ASSERT_FALSE(status.ok())
          << "op " << int(static_cast<uint8_t>(op)) << " v" << int(version);
      EXPECT_EQ(status.code(), StatusCode::kParseError);
      EXPECT_NE(status.ToString().find("requires protocol version"),
                std::string::npos)
          << status.ToString();
    }
  }
}

TEST(ProtocolVersionTest, StatsPayloadKeepsTheFiveFieldShapeForOldPeers) {
  // The churn counters ride only in v3-stamped stats frames; a v1/v2 peer
  // keeps receiving (and fully consuming) the exact payload it always had.
  server::Response churned;
  churned.op = server::Opcode::kStats;
  churned.stats.requests = 7;
  churned.stats.pending_delta_tables = 4;
  churned.stats.pending_tombstones = 2;
  churned.stats.compactions = 1;
  churned.version = 2;
  const std::string old_frame = server::SerializeResponse(churned);
  churned.version = 3;
  const std::string new_frame = server::SerializeResponse(churned);
  // Exactly the three u64 counters of extra payload, and not a byte more.
  EXPECT_EQ(new_frame.size(), old_frame.size() + 3 * sizeof(uint64_t));

  std::istringstream in(old_frame);
  server::Response decoded;
  ASSERT_TRUE(server::DecodeResponse(in, &decoded).ok());
  EXPECT_EQ(decoded.stats.requests, 7u);
  EXPECT_EQ(decoded.stats.pending_delta_tables, 0u);
  EXPECT_EQ(decoded.stats.pending_tombstones, 0u);
  EXPECT_EQ(decoded.stats.compactions, 0u);
}

TEST(ProtocolVersionTest, HostileTableIdLengthIsRejectedBeforeAllocation) {
  std::ostringstream hostile;
  search::io::WritePod(hostile, server::kProtocolVersion);
  search::io::WritePod(hostile,
                       static_cast<uint8_t>(server::Opcode::kRemoveTable));
  search::io::WritePod(hostile, uint32_t{0xFFFFFFFF});  // table id length
  std::istringstream in(hostile.str());
  server::Request decoded;
  auto status = server::DecodeRequest(in, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(ProtocolVersionTest, VersionsOutsideTheSupportedRangeAreRejected) {
  for (uint8_t version : {uint8_t{0}, uint8_t{server::kProtocolVersion + 1}}) {
    server::Request request;
    request.version = version;
    request.op = server::Opcode::kStats;
    std::istringstream in(server::SerializeRequest(request));
    server::Request decoded;
    auto status = server::DecodeRequest(in, &decoded);
    ASSERT_FALSE(status.ok()) << "version " << int(version);
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
}

TEST(ProtocolVersionTest, ErrorResponsesAreDecodableByTheOldestPeer) {
  // Frame-level errors can be answered before any request version is known;
  // they must arrive in a version-1 envelope so even a v1 client reads them.
  server::Response error = server::Response::Error(
      server::Opcode::kJoin, Status::OutOfRange("too big"));
  EXPECT_EQ(error.version, 1);
  std::istringstream in(server::SerializeResponse(error));
  server::Response decoded;
  ASSERT_TRUE(server::DecodeResponse(in, &decoded).ok());
  EXPECT_EQ(decoded, error);
}

}  // namespace
}  // namespace tsfm
