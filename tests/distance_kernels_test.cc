// The distance slots of the kernel seam (kernels/kernels.h) and the scans
// above them (search/scan.h): scalar/SIMD agreement (the 1e-4 relative
// tolerance contract), exact tail handling, the cosine normalization and
// zero-norm semantics the seam owns, the multi-query kernels' and scans'
// batch invariance, the flat scan vs the pairwise kernels,
// dispatch selection (including the LAKS_FORCE_SCALAR override), and
// end-to-end lake parity between kernel sets. The encoder slots (GEMM,
// GELU) are covered by kernels_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <unordered_set>
#include <vector>

#include "kernels/kernels.h"
#include "search/hnsw.h"
#include "search/knn_index.h"
#include "search/quantizer.h"
#include "search/scan.h"
#include "search/sharded_lake_index.h"
#include "search/vector_index.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using kernels::BestKernels;
using kernels::CosineDistanceFromDot;
using kernels::KernelDispatch;
using kernels::Kernels;
using kernels::kMaxCosineDistance;
using kernels::ScalarKernels;
using testutil::RandomVec;

// Pins the process-wide kernel selection for one scope.
class ScopedKernels {
 public:
  explicit ScopedKernels(const KernelDispatch& set) {
    kernels::internal::OverrideKernelsForTest(&set);
  }
  ~ScopedKernels() { kernels::internal::OverrideKernelsForTest(nullptr); }
};

// The documented contract: kernel sets agree within 1e-4 relative (floored
// at 1 so near-zero values compare absolutely).
void ExpectWithinContract(float a, float b) {
  const float scale = std::max({1.0f, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), 1e-4f * scale) << a << " vs " << b;
}

// Cosine distance of a and b with every dot product taken by `set`.
float CosineFrom(const KernelDispatch& set, const float* a, const float* b,
                 size_t n) {
  return CosineDistanceFromDot(set.dot(a, b, n), std::sqrt(set.dot(a, a, n)),
                               std::sqrt(set.dot(b, b, n)));
}

// `count` random vectors of length `dim`, packed row-major.
std::vector<float> RandomPacked(Rng* rng, size_t count, size_t dim) {
  std::vector<float> packed;
  for (size_t i = 0; i < count; ++i) {
    const auto v = RandomVec(rng, dim);
    packed.insert(packed.end(), v.begin(), v.end());
  }
  return packed;
}

// ------------------------------------------------- scalar/SIMD agreement

TEST(DistanceKernelsTest, KernelSetsAgreeAcrossDims) {
  const KernelDispatch& scalar = ScalarKernels();
  const KernelDispatch& best = BestKernels();
  Rng rng(41);
  // 1..1024 including every sub-8 tail shape and non-multiple-of-8 dims.
  const std::vector<size_t> dims = {1,  2,  3,   4,   5,   6,   7,   8,  9,
                                    12, 15, 16,  17,  24,  31,  32,  33, 63,
                                    64, 65, 127, 128, 255, 257, 384, 511,
                                    512, 768, 1000, 1023, 1024};
  for (size_t dim : dims) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto a = RandomVec(&rng, dim);
      const auto b = RandomVec(&rng, dim);
      ExpectWithinContract(scalar.dot(a.data(), b.data(), dim),
                           best.dot(a.data(), b.data(), dim));
      ExpectWithinContract(scalar.l2sq(a.data(), b.data(), dim),
                           best.l2sq(a.data(), b.data(), dim));
      ExpectWithinContract(CosineFrom(scalar, a.data(), b.data(), dim),
                           CosineFrom(best, a.data(), b.data(), dim));
      // The multi-query kernels must agree with their pairwise
      // counterparts too (their register tile may change the accumulation
      // order).
      float batch_scalar = 0.0f, batch_best = 0.0f;
      scalar.dot_multi(a.data(), 1, b.data(), 1, dim, &batch_scalar);
      best.dot_multi(a.data(), 1, b.data(), 1, dim, &batch_best);
      ExpectWithinContract(batch_scalar, batch_best);
      ExpectWithinContract(scalar.dot(a.data(), b.data(), dim), batch_best);
    }
  }
}

TEST(DistanceKernelsTest, BatchKernelsMatchPairwiseAcrossRowCounts) {
  // 1..9 rows exercises the 4-row blocked main loop and every remainder;
  // 1..3 queries the 2-query tile and its odd-query remainder.
  Rng rng(67);
  for (size_t dim : {7u, 8u, 19u, 64u}) {
    for (size_t nq = 1; nq <= 3; ++nq) {
      const auto queries = RandomPacked(&rng, nq, dim);
      for (size_t rows = 1; rows <= 9; ++rows) {
        const auto data = RandomPacked(&rng, rows, dim);
        for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
          std::vector<float> dots(nq * rows), l2s(nq * rows);
          kd->dot_multi(queries.data(), nq, data.data(), rows, dim,
                        dots.data());
          kd->l2sq_multi(queries.data(), nq, data.data(), rows, dim,
                         l2s.data());
          for (size_t q = 0; q < nq; ++q) {
            const float* query = queries.data() + q * dim;
            for (size_t r = 0; r < rows; ++r) {
              ExpectWithinContract(dots[q * rows + r],
                                   kd->dot(query, data.data() + r * dim, dim));
              ExpectWithinContract(l2s[q * rows + r],
                                   kd->l2sq(query, data.data() + r * dim, dim));
            }
          }
        }
      }
    }
  }
}

std::vector<float> SmallIntegers(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(static_cast<int>(rng->UniformDouble(-9, 9)));
  }
  return v;
}

TEST(DistanceKernelsTest, IntegerVectorsAreExactIncludingTails) {
  // Small-integer floats make every partial product exact, so any
  // accumulation order must produce the identical sum — a wrong tail mask
  // (reading a lane too many or too few) shows up as an exact mismatch.
  // Rows 1..9 x queries 1..3 drive the multi kernels' 2×4 tile, its
  // odd-query 1×4 tile (both with masked dim tails) and the pairwise
  // remainder rows.
  Rng rng(43);
  constexpr size_t kMaxRows = 9, kMaxQueries = 3;
  for (size_t dim = 1; dim <= 40; ++dim) {
    const auto rows = SmallIntegers(&rng, kMaxRows * dim);
    const auto queries = SmallIntegers(&rng, kMaxQueries * dim);
    auto expected = [&](size_t q, size_t r, bool l2) {
      float sum = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        const float a = queries[q * dim + i], b = rows[r * dim + i];
        sum += l2 ? (a - b) * (a - b) : a * b;
      }
      return sum;
    };
    for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
      EXPECT_EQ(kd->dot(queries.data(), rows.data(), dim),
                expected(0, 0, false))
          << kd->name << " dim " << dim;
      EXPECT_EQ(kd->l2sq(queries.data(), rows.data(), dim),
                expected(0, 0, true))
          << kd->name << " dim " << dim;
      for (size_t num_rows = 1; num_rows <= kMaxRows; ++num_rows) {
        for (size_t nq = 1; nq <= kMaxQueries; ++nq) {
          std::vector<float> dots(nq * num_rows), l2s(nq * num_rows);
          kd->dot_multi(queries.data(), nq, rows.data(), num_rows, dim,
                        dots.data());
          kd->l2sq_multi(queries.data(), nq, rows.data(), num_rows, dim,
                         l2s.data());
          for (size_t q = 0; q < nq; ++q) {
            for (size_t r = 0; r < num_rows; ++r) {
              EXPECT_EQ(dots[q * num_rows + r], expected(q, r, false))
                  << kd->name << " dim " << dim << " rows " << num_rows
                  << " nq " << nq << " q " << q << " r " << r;
              EXPECT_EQ(l2s[q * num_rows + r], expected(q, r, true))
                  << kd->name << " dim " << dim << " rows " << num_rows
                  << " nq " << nq << " q " << q << " r " << r;
            }
          }
        }
      }
    }
  }
}

// --------------------------------------------- sq8 scalar/SIMD agreement

std::vector<uint8_t> RandomCodes(Rng* rng, size_t n) {
  std::vector<uint8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<uint8_t>(rng->UniformDouble(0, 255.999));
  }
  return codes;
}

TEST(DistanceKernelsTest, Sq8KernelSetsAgreeAcrossDims) {
  // Mirror of KernelSetsAgreeAcrossDims for the asymmetric u8 kernels:
  // same 1e-4 contract, same dim sweep with every sub-8 tail shape.
  const KernelDispatch& scalar = ScalarKernels();
  const KernelDispatch& best = BestKernels();
  Rng rng(151);
  const std::vector<size_t> dims = {1,  2,  3,   4,   5,   6,   7,   8,  9,
                                    12, 15, 16,  17,  24,  31,  32,  33, 63,
                                    64, 65, 127, 128, 255, 257, 384, 511,
                                    512, 768, 1000, 1023, 1024};
  for (size_t dim : dims) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto q = RandomVec(&rng, dim);
      const auto row = RandomCodes(&rng, dim);
      float dot_scalar = 0.0f, dot_best = 0.0f;
      scalar.dot_multi_sq8(q.data(), 1, row.data(), 1, dim, &dot_scalar);
      best.dot_multi_sq8(q.data(), 1, row.data(), 1, dim, &dot_best);
      ExpectWithinContract(dot_scalar, dot_best);
      float l2_scalar = 0.0f, l2_best = 0.0f;
      scalar.l2sq_multi_sq8(q.data(), 1, row.data(), 1, dim, &l2_scalar);
      best.l2sq_multi_sq8(q.data(), 1, row.data(), 1, dim, &l2_best);
      ExpectWithinContract(l2_scalar, l2_best);
    }
  }
}

TEST(DistanceKernelsTest, Sq8BatchKernelsMatchReferenceAcrossRowCounts) {
  // 1..9 rows exercises the 4-rows-abreast main loop and every remainder;
  // 1..3 queries the 2-query tile and its odd-query remainder.
  Rng rng(157);
  for (size_t dim : {7u, 8u, 19u, 64u}) {
    for (size_t nq = 1; nq <= 3; ++nq) {
      const auto queries = RandomPacked(&rng, nq, dim);
      for (size_t rows = 1; rows <= 9; ++rows) {
        const auto codes = RandomCodes(&rng, rows * dim);
        // Reference: per-pair scalar accumulation over widened bytes.
        std::vector<float> ref_dot(nq * rows, 0.0f), ref_l2(nq * rows, 0.0f);
        for (size_t q = 0; q < nq; ++q) {
          for (size_t r = 0; r < rows; ++r) {
            for (size_t i = 0; i < dim; ++i) {
              const float x = queries[q * dim + i];
              const float u = static_cast<float>(codes[r * dim + i]);
              ref_dot[q * rows + r] += x * u;
              ref_l2[q * rows + r] += (x - u) * (x - u);
            }
          }
        }
        for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
          std::vector<float> dots(nq * rows), l2s(nq * rows);
          kd->dot_multi_sq8(queries.data(), nq, codes.data(), rows, dim,
                            dots.data());
          kd->l2sq_multi_sq8(queries.data(), nq, codes.data(), rows, dim,
                             l2s.data());
          for (size_t i = 0; i < nq * rows; ++i) {
            ExpectWithinContract(dots[i], ref_dot[i]);
            ExpectWithinContract(l2s[i], ref_l2[i]);
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, Sq8IntegerQueriesAreExactIncludingTails) {
  // Small-integer queries against u8 codes make every partial product
  // exact — any tail-handling bug (a byte too many or too few) shows up
  // as an exact mismatch on some dim in 1..40. Rows 1..9 x queries 1..3
  // drive the 2×4 tile, the odd-query 1×4 tile (both with scalar dim
  // tails) and the pairwise remainder rows.
  Rng rng(163);
  constexpr size_t kMaxRows = 9, kMaxQueries = 3;
  for (size_t dim = 1; dim <= 40; ++dim) {
    const auto queries = SmallIntegers(&rng, kMaxQueries * dim);
    const auto codes = RandomCodes(&rng, kMaxRows * dim);
    auto expected = [&](size_t q, size_t r, bool l2) {
      float sum = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        const float x = queries[q * dim + i];
        const float u = static_cast<float>(codes[r * dim + i]);
        sum += l2 ? (x - u) * (x - u) : x * u;
      }
      return sum;
    };
    for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
      for (size_t num_rows = 1; num_rows <= kMaxRows; ++num_rows) {
        for (size_t nq = 1; nq <= kMaxQueries; ++nq) {
          std::vector<float> dots(nq * num_rows), l2s(nq * num_rows);
          kd->dot_multi_sq8(queries.data(), nq, codes.data(), num_rows, dim,
                            dots.data());
          kd->l2sq_multi_sq8(queries.data(), nq, codes.data(), num_rows, dim,
                             l2s.data());
          for (size_t q = 0; q < nq; ++q) {
            for (size_t r = 0; r < num_rows; ++r) {
              EXPECT_EQ(dots[q * num_rows + r], expected(q, r, false))
                  << kd->name << " dim " << dim << " rows " << num_rows
                  << " nq " << nq << " q " << q << " r " << r;
              EXPECT_EQ(l2s[q * num_rows + r], expected(q, r, true))
                  << kd->name << " dim " << dim << " rows " << num_rows
                  << " nq " << nq << " q " << q << " r " << r;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------ cosine semantics

// Cosine distance the way the seam computes it: the selected set's dot and
// Norm, normalized by CosineDistanceFromDot.
float SeamCosine(const std::vector<float>& a, const std::vector<float>& b) {
  return CosineDistanceFromDot(Kernels().dot(a.data(), b.data(), a.size()),
                               kernels::Norm(a.data(), a.size()),
                               kernels::Norm(b.data(), b.size()));
}

TEST(DistanceKernelsTest, CosineKernelNormalizesInternally) {
  // Scaling either argument must not change the distance: normalization is
  // the seam's job (CosineDistanceFromDot), never a caller-side division.
  Rng rng(47);
  const size_t dim = 13;
  const auto a = RandomVec(&rng, dim);
  auto b = RandomVec(&rng, dim);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    ScopedKernels pin(*kd);
    const float base = SeamCosine(a, b);
    std::vector<float> scaled = b;
    for (auto& x : scaled) x *= 7.5f;
    ExpectWithinContract(base, SeamCosine(a, scaled));
    EXPECT_NEAR(SeamCosine(a, a), 0.0f, 1e-5f);
  }
}

TEST(DistanceKernelsTest, ZeroNormVectorsScoreMaxCosineDistance) {
  const std::vector<float> zero(11, 0.0f);
  Rng rng(53);
  const auto x = RandomVec(&rng, 11);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    ScopedKernels pin(*kd);
    EXPECT_EQ(SeamCosine(zero, x), kMaxCosineDistance);
    EXPECT_EQ(SeamCosine(x, zero), kMaxCosineDistance);
    EXPECT_EQ(SeamCosine(zero, zero), kMaxCosineDistance);
  }
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 0.0f, 1.0f), kMaxCosineDistance);
}

// ---------------------------------------------------------- the flat scan

TEST(DistanceKernelsTest, ScanTopKMatchesPairwiseKernels) {
  Rng rng(59);
  const size_t dim = 19, rows = 300;  // odd dim: every row ends in a tail
  std::vector<float> data;
  std::vector<float> norms;
  for (size_t r = 0; r < rows; ++r) {
    const auto v = RandomVec(&rng, dim);
    data.insert(data.end(), v.begin(), v.end());
  }
  const auto query = RandomVec(&rng, dim);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    norms.clear();
    for (size_t r = 0; r < rows; ++r) {
      norms.push_back(std::sqrt(kd->dot(data.data() + r * dim,
                                        data.data() + r * dim, dim)));
    }
    const float qnorm = std::sqrt(kd->dot(query.data(), query.data(), dim));
    for (Metric metric : {Metric::kCosine, Metric::kL2}) {
      // Reference: every pairwise distance, stably ordered by (dist, row).
      std::vector<std::pair<float, size_t>> ref;
      for (size_t r = 0; r < rows; ++r) {
        const float* row = data.data() + r * dim;
        const float dist =
            metric == Metric::kCosine
                ? CosineDistanceFromDot(kd->dot(query.data(), row, dim),
                                        norms[r], qnorm)
                : std::sqrt(kd->l2sq(query.data(), row, dim));
        ref.emplace_back(dist, r);
      }
      std::sort(ref.begin(), ref.end());
      for (size_t k : {1u, 7u, 64u, 300u, 500u}) {
        auto batch = ScanTopKMulti(*kd, query.data(), 1, data.data(),
                                   norms.data(), rows, dim, metric, k);
        ASSERT_EQ(batch.size(), 1u);
        const auto& hits = batch[0];
        ASSERT_EQ(hits.size(), std::min<size_t>(k, rows));
        for (size_t i = 0; i < hits.size(); ++i) {
          EXPECT_EQ(hits[i].row, ref[i].second) << kd->name << " k=" << k;
          // The scan streams through the *_multi kernels, whose
          // accumulation order may differ from the pairwise kernels —
          // values agree within the tolerance contract, not bit-exactly.
          ExpectWithinContract(hits[i].distance, ref[i].first);
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, ScanTopKDegenerateInputs) {
  // No rows or k == 0: one empty hit list per query; no queries: no lists.
  const std::vector<float> query = {1.0f, 0.0f};
  const auto no_rows =
      ScanTopKMulti(query.data(), 1, nullptr, nullptr, 0, 2, Metric::kL2, 5);
  ASSERT_EQ(no_rows.size(), 1u);
  EXPECT_TRUE(no_rows[0].empty());
  const std::vector<float> rows = {0.5f, 0.5f};
  const auto no_k =
      ScanTopKMulti(query.data(), 1, rows.data(), nullptr, 1, 2, Metric::kL2, 0);
  ASSERT_EQ(no_k.size(), 1u);
  EXPECT_TRUE(no_k[0].empty());
  EXPECT_TRUE(
      ScanTopKMulti(query.data(), 0, rows.data(), nullptr, 1, 2, Metric::kL2, 5)
          .empty());
}

// --------------------------------------------- multi-query (mini-GEMM)

TEST(DistanceKernelsTest, MultiKernelsBitIdenticalToSingleQueryBatch) {
  // The documented multi-kernel contract: out[q * rows + r] is
  // BIT-IDENTICAL to what the same dispatch returns for query q run alone
  // (num_queries = 1) against row r — the register tiling may reorder rows
  // and queries but never an accumulation, so a query's position in the
  // batch and the batch size change nothing. Row counts 1..9 cover the
  // 4-row tile and every remainder; query counts 1..5 cover the 2-query
  // tile, its odd-query remainder, and the degenerate single query.
  Rng rng(211);
  const std::vector<size_t> dims = {1, 3, 5, 7, 8, 9, 16, 19, 64, 65, 127};
  for (size_t dim : dims) {
    for (size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
      std::vector<float> data;
      for (size_t r = 0; r < rows; ++r) {
        const auto v = RandomVec(&rng, dim);
        data.insert(data.end(), v.begin(), v.end());
      }
      const auto codes = RandomCodes(&rng, rows * dim);
      for (size_t nq : {1u, 2u, 3u, 4u, 5u}) {
        std::vector<float> queries;
        for (size_t q = 0; q < nq; ++q) {
          const auto v = RandomVec(&rng, dim);
          queries.insert(queries.end(), v.begin(), v.end());
        }
        for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
          std::vector<float> multi(nq * rows), single(rows);
          kd->dot_multi(queries.data(), nq, data.data(), rows, dim,
                        multi.data());
          for (size_t q = 0; q < nq; ++q) {
            kd->dot_multi(queries.data() + q * dim, 1, data.data(), rows, dim,
                          single.data());
            for (size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(multi[q * rows + r], single[r])
                  << kd->name << " dot dim=" << dim << " rows=" << rows
                  << " nq=" << nq << " q=" << q << " r=" << r;
            }
          }
          kd->l2sq_multi(queries.data(), nq, data.data(), rows, dim,
                         multi.data());
          for (size_t q = 0; q < nq; ++q) {
            kd->l2sq_multi(queries.data() + q * dim, 1, data.data(), rows,
                           dim, single.data());
            for (size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(multi[q * rows + r], single[r])
                  << kd->name << " l2sq dim=" << dim << " rows=" << rows
                  << " nq=" << nq << " q=" << q << " r=" << r;
            }
          }
          kd->dot_multi_sq8(queries.data(), nq, codes.data(), rows, dim,
                            multi.data());
          for (size_t q = 0; q < nq; ++q) {
            kd->dot_multi_sq8(queries.data() + q * dim, 1, codes.data(),
                              rows, dim, single.data());
            for (size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(multi[q * rows + r], single[r])
                  << kd->name << " dot_sq8 dim=" << dim << " rows=" << rows
                  << " nq=" << nq << " q=" << q << " r=" << r;
            }
          }
          kd->l2sq_multi_sq8(queries.data(), nq, codes.data(), rows, dim,
                             multi.data());
          for (size_t q = 0; q < nq; ++q) {
            kd->l2sq_multi_sq8(queries.data() + q * dim, 1, codes.data(),
                               rows, dim, single.data());
            for (size_t r = 0; r < rows; ++r) {
              EXPECT_EQ(multi[q * rows + r], single[r])
                  << kd->name << " l2sq_sq8 dim=" << dim << " rows=" << rows
                  << " nq=" << nq << " q=" << q << " r=" << r;
            }
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, ScanTopKMultiBitIdenticalToPerQueryScan) {
  // The whole point of the multi scan: batching may not change ANY answer,
  // so each query gets exactly the hits it gets scanned alone. 600 rows
  // crosses the 512-row block boundary; dims include sub-8 tails; a
  // zero-norm row exercises kMaxCosineDistance ranking.
  Rng rng(223);
  for (size_t dim : {5u, 19u, 64u}) {
    const size_t rows = 600;
    std::vector<float> data;
    for (size_t r = 0; r < rows; ++r) {
      const auto v = RandomVec(&rng, dim);
      data.insert(data.end(), v.begin(), v.end());
    }
    std::fill(data.begin() + 17 * dim, data.begin() + 18 * dim, 0.0f);
    for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
      std::vector<float> norms;
      for (size_t r = 0; r < rows; ++r) {
        norms.push_back(std::sqrt(
            kd->dot(data.data() + r * dim, data.data() + r * dim, dim)));
      }
      for (Metric metric : {Metric::kCosine, Metric::kL2}) {
        for (size_t nq : {1u, 3u, 4u, 5u}) {
          std::vector<float> queries;
          for (size_t q = 0; q < nq; ++q) {
            const auto v = RandomVec(&rng, dim);
            queries.insert(queries.end(), v.begin(), v.end());
          }
          auto multi = ScanTopKMulti(*kd, queries.data(), nq, data.data(),
                                     norms.data(), rows, dim, metric, 10);
          ASSERT_EQ(multi.size(), nq);
          for (size_t q = 0; q < nq; ++q) {
            const auto single =
                ScanTopKMulti(*kd, queries.data() + q * dim, 1, data.data(),
                              norms.data(), rows, dim, metric, 10)[0];
            ASSERT_EQ(multi[q].size(), single.size());
            for (size_t i = 0; i < single.size(); ++i) {
              EXPECT_EQ(multi[q][i].row, single[i].row)
                  << kd->name << " dim=" << dim << " nq=" << nq << " q=" << q;
              EXPECT_EQ(multi[q][i].distance, single[i].distance)
                  << kd->name << " dim=" << dim << " nq=" << nq << " q=" << q;
            }
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, ScanTopKMultiSq8BitIdenticalToPerQueryScan) {
  // Same contract through the quantized pipeline: candidate selection and
  // the exact rescore must be unaffected by batching.
  Rng rng(227);
  for (size_t dim : {5u, 19u, 64u}) {
    const size_t rows = 600;
    std::vector<float> data;
    for (size_t r = 0; r < rows; ++r) {
      const auto v = RandomVec(&rng, dim);
      data.insert(data.end(), v.begin(), v.end());
    }
    const Sq8Codec codec = Sq8Codec::Train(data.data(), rows, dim);
    std::vector<uint8_t> codes(rows * dim);
    std::vector<float> norms(rows);
    for (size_t r = 0; r < rows; ++r) {
      codec.EncodeRow(data.data() + r * dim, codes.data() + r * dim);
      norms[r] = codec.DecodedNorm(codes.data() + r * dim);
    }
    for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
      for (Metric metric : {Metric::kCosine, Metric::kL2}) {
        for (size_t nq : {1u, 3u, 4u, 5u}) {
          std::vector<float> queries;
          for (size_t q = 0; q < nq; ++q) {
            const auto v = RandomVec(&rng, dim);
            queries.insert(queries.end(), v.begin(), v.end());
          }
          auto multi =
              ScanTopKMultiSq8(*kd, queries.data(), nq, codes.data(), codec,
                               norms.data(), rows, metric, 10);
          ASSERT_EQ(multi.size(), nq);
          for (size_t q = 0; q < nq; ++q) {
            const auto single =
                ScanTopKMultiSq8(*kd, queries.data() + q * dim, 1, codes.data(),
                                 codec, norms.data(), rows, metric, 10)[0];
            ASSERT_EQ(multi[q].size(), single.size());
            for (size_t i = 0; i < single.size(); ++i) {
              EXPECT_EQ(multi[q][i].row, single[i].row)
                  << kd->name << " dim=" << dim << " nq=" << nq << " q=" << q;
              EXPECT_EQ(multi[q][i].distance, single[i].distance)
                  << kd->name << " dim=" << dim << " nq=" << nq << " q=" << q;
            }
          }
        }
      }
    }
  }
}

TEST(DistanceKernelsTest, KnnSearchBatchBitIdenticalToPerQuerySearch) {
  // The index-level seam over the multi scan: SearchBatch must return, per
  // query, exactly what Search returns — with or without a pool, for both
  // storage modes, and a wrong-dimension query keeps its empty slot.
  Rng rng(229);
  const size_t dim = 19, rows = 200;
  ThreadPool pool(3);
  for (Storage storage : {Storage::kFloat32, Storage::kSq8}) {
    for (Metric metric : {Metric::kCosine, Metric::kL2}) {
      KnnIndex index(dim, metric, storage);
      for (size_t r = 0; r < rows; ++r) index.Add(r * 7, RandomVec(&rng, dim));
      std::vector<std::vector<float>> queries;
      for (size_t q = 0; q < 11; ++q) queries.push_back(RandomVec(&rng, dim));
      queries[4] = RandomVec(&rng, dim - 1);  // wrong dim: empty slot
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto batch = index.SearchBatch(queries, 10, p);
        ASSERT_EQ(batch.size(), queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          EXPECT_EQ(batch[q], index.Search(queries[q], 10)) << "q=" << q;
        }
        EXPECT_TRUE(batch[4].empty());
      }
    }
  }
}

// ------------------------------------------------------------- dispatch

TEST(DistanceKernelsTest, DispatchSelectsAKnownSet) {
  EXPECT_STREQ(ScalarKernels().name, "scalar");
  const std::string active = Kernels().name;
  EXPECT_TRUE(active == "scalar" || active == "avx2-fma" || active == "neon")
      << active;
  const std::string best = BestKernels().name;
  EXPECT_TRUE(best == "scalar" || best == "avx2-fma" || best == "neon");
  // Under the LAKS_FORCE_SCALAR CI leg the process-wide selection must be
  // scalar even though BestKernels may still name a SIMD set.
  const char* force = std::getenv("LAKS_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    EXPECT_STREQ(Kernels().name, "scalar");
  }
}

// -------------------------------------------------- end-to-end parity

// One lake corpus shared by the parity tests: odd dim (tail lanes on every
// row) and a couple of zero-norm columns to exercise the max-distance rule
// through the whole ranking stack.
struct LakeFixture {
  static constexpr size_t kDim = 19;
  std::vector<std::vector<std::vector<float>>> tables;
  std::vector<std::vector<float>> join_queries;
  std::vector<std::vector<std::vector<float>>> union_queries;

  LakeFixture() {
    Rng rng(61);
    for (size_t t = 0; t < 120; ++t) {
      std::vector<std::vector<float>> cols(1 + t % 3);
      for (auto& col : cols) col = RandomVec(&rng, kDim);
      if (t % 40 == 7) cols[0].assign(kDim, 0.0f);  // zero-norm column
      tables.push_back(std::move(cols));
    }
    for (size_t q = 0; q < 12; ++q) {
      join_queries.push_back(RandomVec(&rng, kDim));
      union_queries.push_back({RandomVec(&rng, kDim), RandomVec(&rng, kDim)});
    }
  }
};

ShardedLakeIndex BuildLake(const LakeFixture& f, size_t shards,
                           const IndexOptions& options) {
  ShardedLakeIndex lake(LakeFixture::kDim, shards, options);
  for (size_t t = 0; t < f.tables.size(); ++t) {
    lake.AddTable("table_" + std::to_string(t), f.tables[t]);
  }
  return lake;
}

TEST(DistanceKernelsTest, FlatLakeResultsIdenticalScalarVsSimd) {
  const LakeFixture f;
  for (size_t shards : {1u, 4u}) {
    const auto lake = BuildLake(f, shards, IndexOptions{});
    std::vector<std::vector<std::string>> scalar_join, simd_join;
    std::vector<std::vector<std::string>> scalar_union, simd_union;
    {
      ScopedKernels pin(ScalarKernels());
      for (const auto& q : f.join_queries) {
        scalar_join.push_back(lake.QueryJoinable(q, 10));
      }
      for (const auto& q : f.union_queries) {
        scalar_union.push_back(lake.QueryUnionable(q, 10));
      }
    }
    {
      ScopedKernels pin(BestKernels());
      for (const auto& q : f.join_queries) {
        simd_join.push_back(lake.QueryJoinable(q, 10));
      }
      for (const auto& q : f.union_queries) {
        simd_union.push_back(lake.QueryUnionable(q, 10));
      }
    }
    EXPECT_EQ(scalar_join, simd_join) << "shards=" << shards;
    EXPECT_EQ(scalar_union, simd_union) << "shards=" << shards;
  }
}

TEST(DistanceKernelsTest, Sq8LakeResultsIdenticalScalarVsSimd) {
  // Same corpus and queries as the float parity test, but with sq8 shards:
  // candidate selection runs through the asymmetric u8 kernels and the
  // rescore through the float pairwise kernels, and the ranked ids must
  // still not depend on which ISA produced them.
  const LakeFixture f;
  IndexOptions options;
  options.storage = Storage::kSq8;
  for (size_t shards : {1u, 4u}) {
    const auto lake = BuildLake(f, shards, options);
    std::vector<std::vector<std::string>> scalar_join, simd_join;
    std::vector<std::vector<std::string>> scalar_union, simd_union;
    {
      ScopedKernels pin(ScalarKernels());
      for (const auto& q : f.join_queries) {
        scalar_join.push_back(lake.QueryJoinable(q, 10));
      }
      for (const auto& q : f.union_queries) {
        scalar_union.push_back(lake.QueryUnionable(q, 10));
      }
    }
    {
      ScopedKernels pin(BestKernels());
      for (const auto& q : f.join_queries) {
        simd_join.push_back(lake.QueryJoinable(q, 10));
      }
      for (const auto& q : f.union_queries) {
        simd_union.push_back(lake.QueryUnionable(q, 10));
      }
    }
    EXPECT_EQ(scalar_join, simd_join) << "shards=" << shards;
    EXPECT_EQ(scalar_union, simd_union) << "shards=" << shards;
  }
}

TEST(DistanceKernelsTest, HnswRecallUnchangedScalarVsSimd) {
  const LakeFixture f;
  // One flat and one HNSW column index over the same corpus; recall@10 of
  // the graph against the exact scan must not depend on the kernel set.
  IndexOptions flat_opt;
  IndexOptions hnsw_opt;
  hnsw_opt.backend = IndexBackend::kHnsw;
  auto flat = MakeVectorIndex(LakeFixture::kDim, flat_opt);
  auto hnsw = MakeVectorIndex(LakeFixture::kDim, hnsw_opt);
  size_t next = 0;
  for (const auto& table : f.tables) {
    for (const auto& col : table) {
      flat->Add(next, col);
      hnsw->Add(next, col);
      ++next;
    }
  }
  auto recall_at_10 = [&](const KernelDispatch& kernels) {
    ScopedKernels pin(kernels);
    double sum = 0.0;
    for (const auto& q : f.join_queries) {
      std::unordered_set<size_t> gold;
      for (const auto& [p, d] : flat->Search(q, 10)) gold.insert(p);
      size_t hits = 0;
      for (const auto& [p, d] : hnsw->Search(q, 10)) hits += gold.count(p);
      sum += static_cast<double>(hits) / static_cast<double>(gold.size());
    }
    return sum / static_cast<double>(f.join_queries.size());
  };
  const double scalar_recall = recall_at_10(ScalarKernels());
  const double simd_recall = recall_at_10(BestKernels());
  EXPECT_GE(scalar_recall, 0.9);
  EXPECT_EQ(scalar_recall, simd_recall);
}

}  // namespace
}  // namespace tsfm::search
