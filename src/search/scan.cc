#include "search/scan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>

#include "search/quantizer.h"

namespace tsfm::search {

using kernels::CosineDistanceFromDot;
using kernels::KernelDispatch;
using kernels::Kernels;

namespace {

// Shared heap scaffolding of the scans: one bounded (distance, row)
// max-heap per query with the worst kept candidate on top, fed in ascending
// row order, ties resolved toward the lower row — so given bit-equal block
// values the kept rows and tie-breaks are bit-equal too.
using HeapEntry = std::pair<float, size_t>;
using TopKHeap = std::priority_queue<HeapEntry>;

inline void HeapPush(TopKHeap& heap, size_t cap, float dist, size_t row) {
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

}  // namespace

std::vector<std::vector<ScanHit>> ScanTopKMulti(
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

  // Fixed 512-row blocking, so the row loop stays inside the kernel TU.
  // Each block is loaded from memory once for all queries; the heaps then
  // consume it query-major, in ascending row order per query.
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
        // L2 takes the root here, before the heap: candidates must be
        // selected and tie-broken on the distances we report, or two
        // squared values that round to the same float sqrt would order by
        // row inconsistently with the (distance, row) contract.
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

std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const float* queries, size_t num_queries, const float* rows,
    const float* row_norms, size_t num_rows, size_t dim, Metric metric,
    size_t k) {
  return ScanTopKMulti(Kernels(), queries, num_queries, rows, row_norms,
                       num_rows, dim, metric, k);
}

std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const uint8_t* codes, const Sq8Codec& codec, const float* row_norms,
    size_t num_rows, Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const size_t dim = codec.dim();
  const bool cosine = metric == Metric::kCosine;
  const float* scale = codec.scale().data();
  const float* offset = codec.offset().data();

  // Per-query pre-transform, packed row-major so the candidate scan can
  // stream all prepared queries through one multi kernel call per block.
  // It folds the affine calibration out of the inner loop so the u8
  // kernels stay codec-agnostic:
  //   kCosine: dot(q, decode(u)) = sum q_i*offset_i + sum (q_i*scale_i)*u_i
  //            -> prep = q (.) scale, bias added back per row; exact in
  //            decoded space up to float rounding.
  //   kL2:     prep_i = (q_i - offset_i) / scale_i makes the kernel's
  //            sum (prep_i - u_i)^2 a scale-weighted proxy for the decoded
  //            L2 — monotone enough to pick candidates, never reported
  //            (the rescore below replaces it with the exact distance).
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

  // Phase 1: one blocked pass over the u8 rows feeding a top-C candidate
  // heap per query. C over-selects relative to k so quantization noise at
  // the k boundary cannot evict a true top-k row before the rescore sees
  // it.
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

  // Phase 2: per-query exact rescore. Each query decodes its own candidate
  // set (the sets differ per query, so there is nothing to share across
  // the batch here) and ranks it with the float pairwise kernels, so the
  // distances match a float scan over the decoded rows.
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

std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const float* queries, size_t num_queries, const uint8_t* codes,
    const Sq8Codec& codec, const float* row_norms, size_t num_rows,
    Metric metric, size_t k) {
  return ScanTopKMultiSq8(Kernels(), queries, num_queries, codes, codec,
                          row_norms, num_rows, metric, k);
}

}  // namespace tsfm::search
