// Oracle sweep for the flat scans (search/scan.h).
//
// ScanTopKMulti and phase 1 of ScanTopKMultiSq8 skip rows that cannot
// enter a full top-k heap. The skip must be invisible: this suite keeps the
// unpruned block loop — every row through the exact score and the heap —
// as a test-local oracle and requires the scans to return the same rows
// with bit-identical distances, over both kernel sets, both metrics, both
// storages, every dim 1-127, batches of 1-9 queries, k from 1 past the
// row count, row counts on both sides of the 512-row block edges, and
// inputs built to stress the bound: exact ties, zero norms, NaN and ±inf
// rows, and norms spanning the float range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernels.h"
#include "search/quantizer.h"
#include "search/scan.h"
#include "util/random.h"

namespace tsfm::search {
namespace {

using kernels::CosineDistanceFromDot;
using kernels::KernelDispatch;

// ------------------------------------------------------------- the oracle
// The scans' block loop before the admission bound, kept verbatim: every
// (query, row) pair goes through the exact score and HeapPush.

using HeapEntry = std::pair<float, size_t>;
using TopKHeap = std::priority_queue<HeapEntry>;

void HeapPush(TopKHeap& heap, size_t cap, float dist, size_t row) {
  if (heap.size() < cap) {
    heap.emplace(dist, row);
  } else if (HeapEntry(dist, row) < heap.top()) {
    heap.pop();
    heap.emplace(dist, row);
  }
}

std::vector<ScanHit> DrainHeapSorted(TopKHeap& heap) {
  std::vector<ScanHit> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = {heap.top().first, heap.top().second};
    heap.pop();
  }
  return out;
}

std::vector<std::vector<ScanHit>> OracleScanTopKMulti(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const float* rows, const float* row_norms, size_t num_rows, size_t dim,
    Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const bool cosine = metric == Metric::kCosine;
  std::vector<float> query_norms(cosine ? num_queries : 0);
  if (cosine) {
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
    }
  }
  std::vector<TopKHeap> heaps(num_queries);
  constexpr size_t kBlockRows = 512;
  std::vector<float> block(num_queries * std::min(num_rows, kBlockRows));
  for (size_t base = 0; base < num_rows; base += kBlockRows) {
    const size_t count = std::min(kBlockRows, num_rows - base);
    if (cosine) {
      kernels.dot_multi(queries, num_queries, rows + base * dim, count, dim,
                        block.data());
    } else {
      kernels.l2sq_multi(queries, num_queries, rows + base * dim, count, dim,
                         block.data());
    }
    for (size_t q = 0; q < num_queries; ++q) {
      const float* vals = block.data() + q * count;
      for (size_t i = 0; i < count; ++i) {
        const size_t r = base + i;
        const float dist =
            cosine ? CosineDistanceFromDot(vals[i], row_norms[r],
                                           query_norms[q])
                   : std::sqrt(vals[i]);
        HeapPush(heaps[q], k, dist, r);
      }
    }
  }
  for (size_t q = 0; q < num_queries; ++q) out[q] = DrainHeapSorted(heaps[q]);
  return out;
}

std::vector<std::vector<ScanHit>> OracleScanTopKMultiSq8(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const uint8_t* codes, const Sq8Codec& codec, const float* row_norms,
    size_t num_rows, Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const size_t dim = codec.dim();
  const bool cosine = metric == Metric::kCosine;
  const float* scale = codec.scale().data();
  const float* offset = codec.offset().data();
  std::vector<float> prep(num_queries * dim);
  std::vector<float> biases(cosine ? num_queries : 0, 0.0f);
  std::vector<float> query_norms(cosine ? num_queries : 0, 0.0f);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query = queries + q * dim;
    float* p = prep.data() + q * dim;
    if (cosine) {
      float bias = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        p[i] = query[i] * scale[i];
        bias += query[i] * offset[i];
      }
      biases[q] = bias;
      query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
    } else {
      for (size_t i = 0; i < dim; ++i) {
        p[i] = (query[i] - offset[i]) / scale[i];
      }
    }
  }
  const size_t candidates = std::min(num_rows, std::max<size_t>(4 * k, 64));
  std::vector<TopKHeap> heaps(num_queries);
  constexpr size_t kBlockRows = 512;
  std::vector<float> block(num_queries * std::min(num_rows, kBlockRows));
  for (size_t base = 0; base < num_rows; base += kBlockRows) {
    const size_t count = std::min(kBlockRows, num_rows - base);
    if (cosine) {
      kernels.dot_multi_sq8(prep.data(), num_queries, codes + base * dim,
                            count, dim, block.data());
    } else {
      kernels.l2sq_multi_sq8(prep.data(), num_queries, codes + base * dim,
                             count, dim, block.data());
    }
    for (size_t q = 0; q < num_queries; ++q) {
      const float* vals = block.data() + q * count;
      for (size_t i = 0; i < count; ++i) {
        const size_t r = base + i;
        const float score =
            cosine ? CosineDistanceFromDot(biases[q] + vals[i], row_norms[r],
                                           query_norms[q])
                   : vals[i];
        HeapPush(heaps[q], candidates, score, r);
      }
    }
  }
  std::vector<float> decoded(dim);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query = queries + q * dim;
    TopKHeap& heap = heaps[q];
    std::vector<ScanHit> rescored;
    rescored.reserve(heap.size());
    while (!heap.empty()) {
      const size_t r = heap.top().second;
      heap.pop();
      codec.DecodeRow(codes + r * dim, decoded.data());
      const float dist =
          cosine ? CosineDistanceFromDot(
                       kernels.dot(query, decoded.data(), dim), row_norms[r],
                       query_norms[q])
                 : std::sqrt(kernels.l2sq(query, decoded.data(), dim));
      rescored.push_back({dist, r});
    }
    std::sort(rescored.begin(), rescored.end(),
              [](const ScanHit& a, const ScanHit& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.row < b.row;
              });
    if (rescored.size() > k) rescored.resize(k);
    out[q] = std::move(rescored);
  }
  return out;
}

// ---------------------------------------------------------------- inputs

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectSameHits(const std::vector<std::vector<ScanHit>>& got,
                    const std::vector<std::vector<ScanHit>>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << where << " query " << q;
    for (size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].row, want[q][i].row)
          << where << " query " << q << " hit " << i;
      EXPECT_EQ(Bits(got[q][i].distance), Bits(want[q][i].distance))
          << where << " query " << q << " hit " << i << ": "
          << got[q][i].distance << " vs " << want[q][i].distance;
    }
  }
}

// What a generated lake stresses beyond Gaussian rows. Every lake also
// repeats earlier rows, so distances tie exactly at the heap top.
enum class Stress {
  kPlain,    // Gaussian rows and duplicates only
  kSpecial,  // zero rows and queries, NaN and ±inf rows and norms
  kWild,     // row and query scales from 1e-30 to 1e30: norm products
             // overflow and underflow, dots reach ±inf
};

struct Lake {
  size_t dim = 0, num_rows = 0, num_queries = 0;
  std::vector<float> rows, norms, queries;
  // SQ8 storage of the finite rows, with its own decoded norms (special
  // values are injected into the norms, since codes cannot hold them).
  Sq8Codec codec;
  std::vector<uint8_t> codes;
  std::vector<float> code_norms;
};

float Norm(const float* v, size_t dim) {
  return std::sqrt(kernels::ScalarKernels().dot(v, v, dim));
}

Lake MakeLake(size_t dim, size_t num_rows, size_t num_queries, Stress stress,
              uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(seed);
  Lake lake;
  lake.dim = dim;
  lake.num_rows = num_rows;
  lake.num_queries = num_queries;
  lake.rows.resize(num_rows * dim);
  for (size_t r = 0; r < num_rows; ++r) {
    float* row = lake.rows.data() + r * dim;
    if (r > 0 && rng.Bernoulli(0.25)) {
      const size_t src = rng.Uniform(static_cast<uint32_t>(r));
      std::copy(lake.rows.data() + src * dim,
                lake.rows.data() + (src + 1) * dim, row);
      continue;
    }
    const double scale =
        stress == Stress::kWild ? std::pow(10.0, rng.UniformDouble(-30, 30))
                                : 1.0;
    for (size_t i = 0; i < dim; ++i) {
      row[i] = static_cast<float>(rng.Normal() * scale);
    }
  }
  lake.queries.resize(num_queries * dim);
  for (size_t q = 0; q < num_queries; ++q) {
    float* query = lake.queries.data() + q * dim;
    if (q % 3 == 1) {
      // A copy of a lake row: distances at or near zero, exact ties with
      // that row's duplicates.
      const size_t src = rng.Uniform(static_cast<uint32_t>(num_rows));
      std::copy(lake.rows.data() + src * dim,
                lake.rows.data() + (src + 1) * dim, query);
      continue;
    }
    const double scale =
        stress == Stress::kWild ? std::pow(10.0, rng.UniformDouble(-30, 30))
                                : 1.0;
    for (size_t i = 0; i < dim; ++i) {
      query[i] = static_cast<float>(rng.Normal() * scale);
    }
  }

  // SQ8 rows come from the finite lake, before special rows are injected.
  lake.codec = Sq8Codec::Train(lake.rows.data(), num_rows, dim);
  lake.codes.resize(num_rows * dim);
  for (size_t r = 0; r < num_rows; ++r) {
    lake.codec.EncodeRow(lake.rows.data() + r * dim,
                         lake.codes.data() + r * dim);
    lake.code_norms.push_back(
        lake.codec.DecodedNorm(lake.codes.data() + r * dim));
  }

  if (stress == Stress::kSpecial) {
    const float specials[] = {0.0f, kNaN, kInf, -kInf};
    for (size_t r = 0; r < num_rows; ++r) {
      if (!rng.Bernoulli(0.08)) continue;
      const float special = specials[rng.Uniform(4)];
      float* row = lake.rows.data() + r * dim;
      if (special == 0.0f) {
        std::fill(row, row + dim, 0.0f);
      } else {
        row[rng.Uniform(static_cast<uint32_t>(dim))] = special;
      }
      // Codes cannot hold specials; put them in the decoded norm instead.
      lake.code_norms[r] = special;
    }
    // Query 0 has no direction; the last query (when there are three or
    // more) carries a NaN.
    std::fill(lake.queries.begin(), lake.queries.begin() + dim, 0.0f);
    if (num_queries >= 3) lake.queries[(num_queries - 1) * dim] = kNaN;
  }
  if (stress == Stress::kWild) {
    // Norms spanning the float range, unrelated to the codes they sit by.
    for (float& norm : lake.code_norms) {
      norm *= static_cast<float>(std::pow(10.0, rng.UniformDouble(-30, 30)));
    }
  }
  for (size_t r = 0; r < num_rows; ++r) {
    lake.norms.push_back(Norm(lake.rows.data() + r * dim, dim));
  }
  return lake;
}

// Compares all four scans (float32 and SQ8, cosine and L2) against the
// oracle on `lake` for one k under one kernel set.
void CheckAgainstOracle(const KernelDispatch& kd, const Lake& lake, size_t k,
                        const std::string& tag) {
  for (Metric metric : {Metric::kCosine, Metric::kL2}) {
    const std::string where =
        tag + " " + kd.name + (metric == Metric::kCosine ? " cosine" : " l2") +
        " dim " + std::to_string(lake.dim) + " rows " +
        std::to_string(lake.num_rows) + " nq " +
        std::to_string(lake.num_queries) + " k " + std::to_string(k);
    // Under L2 the float scan must not read row_norms: pass none.
    const float* norms =
        metric == Metric::kCosine ? lake.norms.data() : nullptr;
    ExpectSameHits(
        ScanTopKMulti(kd, lake.queries.data(), lake.num_queries,
                      lake.rows.data(), norms, lake.num_rows, lake.dim,
                      metric, k),
        OracleScanTopKMulti(kd, lake.queries.data(), lake.num_queries,
                            lake.rows.data(), norms, lake.num_rows, lake.dim,
                            metric, k),
        where + " float32");
    ExpectSameHits(
        ScanTopKMultiSq8(kd, lake.queries.data(), lake.num_queries,
                         lake.codes.data(), lake.codec,
                         lake.code_norms.data(), lake.num_rows, metric, k),
        OracleScanTopKMultiSq8(kd, lake.queries.data(), lake.num_queries,
                               lake.codes.data(), lake.codec,
                               lake.code_norms.data(), lake.num_rows, metric,
                               k),
        where + " sq8");
  }
}

std::vector<const KernelDispatch*> KernelSets() {
  std::vector<const KernelDispatch*> sets = {&kernels::ScalarKernels()};
  if (&kernels::BestKernels() != sets[0]) {
    sets.push_back(&kernels::BestKernels());
  }
  return sets;
}

// Row counts on both sides of the 512-row block edges, plus lakes smaller
// than any k below.
constexpr size_t kRowCounts[] = {1,   2,    7,    97,   511,  512,
                                 513, 1023, 1024, 1025, 1537};

// k from 1 past the row count: relative values are resolved per lake.
size_t PickK(size_t which, size_t num_rows) {
  switch (which % 8) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 10;
    case 3: return 30;
    case 4: return 64;
    case 5: return num_rows > 1 ? num_rows - 1 : 1;
    case 6: return num_rows;
    default: return num_rows + 3;
  }
}

// --------------------------------------------------------------- suites

TEST(ScanOracleTest, EveryDimMatchesTheUnprunedLoop) {
  for (size_t dim = 1; dim <= 127; ++dim) {
    const size_t num_rows = kRowCounts[dim % std::size(kRowCounts)];
    const size_t nq = 1 + (dim * 7) % 9;
    const Stress stress = static_cast<Stress>(dim % 3);
    const Lake lake = MakeLake(dim, num_rows, nq, stress, 1000 + dim);
    for (const KernelDispatch* kd : KernelSets()) {
      for (size_t which : {dim, dim + 3}) {
        CheckAgainstOracle(*kd, lake, PickK(which, num_rows),
                           "stress " + std::to_string(dim % 3));
      }
    }
  }
}

TEST(ScanOracleTest, EveryBatchSizeAndKAtTheBlockEdges) {
  // One dim per stress; every nq 1-9 and every k choice against lakes that
  // end just before, on, and just after a block edge.
  for (size_t s = 0; s < 3; ++s) {
    const size_t dim = 16 + 37 * s;
    for (size_t num_rows : {511u, 512u, 513u, 1025u}) {
      for (size_t nq = 1; nq <= 9; ++nq) {
        const Lake lake = MakeLake(dim, num_rows, nq, static_cast<Stress>(s),
                                   7 * num_rows + nq + 100 * s);
        for (const KernelDispatch* kd : KernelSets()) {
          for (size_t which = 0; which < 8; ++which) {
            CheckAgainstOracle(*kd, lake, PickK(which, num_rows),
                               "stress " + std::to_string(s));
          }
        }
      }
    }
  }
}

TEST(ScanOracleTest, AllRowsEqualTieOnEveryRow) {
  // Every row is the same vector: every distance ties, so after the heap
  // fills no later row may enter it, and the kept rows are the first k.
  constexpr size_t kDim = 24, kRows = 1100;
  Rng rng(5);
  std::vector<float> row(kDim);
  for (float& x : row) x = static_cast<float>(rng.Normal());
  std::vector<float> rows;
  for (size_t r = 0; r < kRows; ++r) rows.insert(rows.end(), row.begin(), row.end());
  const std::vector<float> norms(kRows, Norm(row.data(), kDim));
  std::vector<float> queries(3 * kDim);
  for (float& x : queries) x = static_cast<float>(rng.Normal());
  for (const KernelDispatch* kd : KernelSets()) {
    for (Metric metric : {Metric::kCosine, Metric::kL2}) {
      const auto hits = ScanTopKMulti(*kd, queries.data(), 3, rows.data(),
                                      norms.data(), kRows, kDim, metric, 30);
      ExpectSameHits(hits,
                     OracleScanTopKMulti(*kd, queries.data(), 3, rows.data(),
                                         norms.data(), kRows, kDim, metric,
                                         30),
                     kd->name);
      for (const auto& list : hits) {
        ASSERT_EQ(list.size(), 30u);
        for (size_t i = 0; i < list.size(); ++i) EXPECT_EQ(list[i].row, i);
      }
    }
  }
}

// A NaN kept while a heap fills leaves std::priority_queue without a strict
// weak order (a NaN pair compares neither below nor above any other), so a
// later pop + push can raise its top. A later row is still admitted iff its
// distance is below the top (it follows every kept row), but against
// whatever top the unordered heap shows by then.
//
// k = 4 and distances 0.2, NaN, 0.5, 0.9, 0.2, 0.6: after the fill the top
// is (0.5, row 2), with 0.9 hidden below the NaN; row 4 replaces it and
// the top rises to (0.9, row 3), so the unpruned loop admits row 5
// (0.6 < 0.9) although it is not below the top the run began with.
constexpr float kNanFillDistances[] = {0.2f, -1.0f, 0.5f, 0.9f, 0.2f, 0.6f};
constexpr size_t kNanFillK = 4;
constexpr size_t kNanFillLastRow = std::size(kNanFillDistances) - 1;

TEST(ScanOracleTest, NanInTheFillL2AdmitsAfterTheTopRises) {
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> rows;
  for (float d : kNanFillDistances) rows.push_back(d < 0 ? kNaN : d);
  const float query = 0.0f;
  for (const KernelDispatch* kd : KernelSets()) {
    const auto hits = ScanTopKMulti(*kd, &query, 1, rows.data(), nullptr,
                                    rows.size(), 1, Metric::kL2, kNanFillK);
    ExpectSameHits(hits,
                   OracleScanTopKMulti(*kd, &query, 1, rows.data(), nullptr,
                                       rows.size(), 1, Metric::kL2, kNanFillK),
                   kd->name);
    bool kept_last = false;
    for (const ScanHit& hit : hits[0]) kept_last |= hit.row == kNanFillLastRow;
    EXPECT_TRUE(kept_last) << kd->name;
  }
}

TEST(ScanOracleTest, NanInTheFillCosineAdmitsAfterTheTopRises) {
  // The cosine twin: query (1, 0), each row at the angle whose cosine
  // distance is the same list's, and an inf row (inf / inf is NaN) in the
  // NaN's place.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> rows, norms;
  for (float d : kNanFillDistances) {
    const double c = 1.0 - d;
    rows.push_back(d < 0 ? kInf : static_cast<float>(c));
    rows.push_back(d < 0 ? 0.0f : static_cast<float>(std::sqrt(1 - c * c)));
    norms.push_back(Norm(rows.data() + rows.size() - 2, 2));
  }
  const float query[] = {1.0f, 0.0f};
  for (const KernelDispatch* kd : KernelSets()) {
    const auto hits =
        ScanTopKMulti(*kd, query, 1, rows.data(), norms.data(), norms.size(),
                      2, Metric::kCosine, kNanFillK);
    ExpectSameHits(hits,
                   OracleScanTopKMulti(*kd, query, 1, rows.data(),
                                       norms.data(), norms.size(), 2,
                                       Metric::kCosine, kNanFillK),
                   kd->name);
    bool kept_last = false;
    for (const ScanHit& hit : hits[0]) kept_last |= hit.row == kNanFillLastRow;
    EXPECT_TRUE(kept_last) << kd->name;
  }
}

TEST(ScanOracleTest, NanInTheFillSweep) {
  // Short lakes where about every fifth row carries a NaN or an inf
  // coordinate, so most heaps keep a NaN distance during the fill: NaN rows
  // give NaN under L2, inf rows give inf / inf = NaN under cosine. SQ8
  // codes cannot hold either, so its decoded norms carry them instead.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const size_t dim = 1 + seed % 3;
    const size_t num_rows = 8 + rng.Uniform(400);
    const size_t nq = 1 + seed % 4;
    Lake lake = MakeLake(dim, num_rows, nq, Stress::kPlain, 7000 + seed);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!rng.Bernoulli(0.2)) continue;
      const float special = rng.Bernoulli(0.5) ? kNaN : kInf;
      float* row = lake.rows.data() + r * dim;
      row[rng.Uniform(static_cast<uint32_t>(dim))] = special;
      lake.norms[r] = Norm(row, dim);
      lake.code_norms[r] = special;
    }
    const size_t k = 1 + rng.Uniform(12);
    for (const KernelDispatch* kd : KernelSets()) {
      CheckAgainstOracle(*kd, lake, k,
                         "nan fill seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace tsfm::search
