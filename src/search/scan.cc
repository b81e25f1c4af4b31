#include "search/scan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
// values the kept rows and tie-breaks are bit-equal too. Once a heap is
// full, a row enters it iff its distance is strictly below the top's: every
// kept row precedes it, so an equal distance loses the row tie-break, and a
// NaN on either side compares false.
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

// Fixed 512-row blocking, so the row loop stays inside the kernel TU.
constexpr size_t kBlockRows = 512;

// Rows marked against one bound. The heap top falls fastest just after the
// heap fills, so the bound is re-derived from it every kMarkRows rows rather
// than once per block: a lake of one or two blocks still prunes.
constexpr size_t kMarkRows = 64;

// Cosine admission slack, relative to max(1, |1 - top|). The bound
// multiplies the exact path's own norm product, so only the exact path's
// division (its 1 - x cannot flip a strict compare against a float top)
// and the bound's coefficient and product round, each by at most 2^-24
// relative: any slack above ~3 * 2^-24 keeps the skip conservative. 1e-5
// is over 50x that and still admits only a sliver of extra rows.
constexpr double kCosineSlack = 1e-5;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr double kFloatMax = std::numeric_limits<float>::max();

// How a scan turns a block's kernel value for (query q, row r) into the
// distance its heap ranks by, and the admission bound that skips rows
// which cannot enter a full heap. Mark sets marks[j] for every row j whose
// score might be below `top`; an unset mark is certain to fail the heap's
// strict `distance < top` test (see scan.h), so skipping it changes
// nothing, and the marked rows go through Exact and HeapPush unchanged.
struct ScoreSpace {
  enum Kind {
    kCosine,  // CosineDistanceFromDot(bias + value, ‖r‖, ‖q‖)
    kL2,      // sqrt(value): the float scan reports Euclidean distances
    kRaw,     // value itself: SQ8's L2 proxy
  };
  Kind kind;
  const float* row_norms = nullptr;  // kCosine only; kL2 may pass nullptr
  std::vector<float> query_norms;    // kCosine only
  std::vector<float> biases;         // kCosine; empty means no bias

  float Exact(float value, size_t q, size_t r) const {
    switch (kind) {
      case kCosine:
        return CosineDistanceFromDot(
            biases.empty() ? value : biases[q] + value, row_norms[r],
            query_norms[q]);
      case kL2:
        // L2 takes the root here, before the heap: candidates must be
        // selected and tie-broken on the distances we report, or two
        // squared values that round to the same float sqrt would order by
        // row inconsistently with the (distance, row) contract.
        return std::sqrt(value);
      case kRaw:
        return value;
    }
    return value;
  }

  // Marks values[0, n) of query q, rows row0 + j, against the heap top.
  void Mark(const float* values, size_t q, size_t row0, size_t n, float top,
            uint8_t* marks) const {
    switch (kind) {
      case kCosine: {
        // dist = 1 - value / (‖r‖·‖q‖) < top needs value > (1 - top)·‖r‖·‖q‖
        // up to rounding, so keep value >= (1 - top - slack)·‖r‖·‖q‖: one
        // multiply by the exact path's own denominator, no division. A
        // +inf top makes the coefficient -inf and a NaN top NaN, so every
        // row or none passes — both safe (nothing is below a NaN top).
        // NaN values and NaN norms fail the compare and zero norms may
        // pass; either way their exact distance (NaN or
        // kMaxCosineDistance) cannot beat the top.
        const double gap = 1.0 - static_cast<double>(top);
        const double wide = gap - kCosineSlack * std::max(1.0, std::abs(gap));
        // Below the float range, -inf admits every row the float would.
        const float coef = wide < -kFloatMax ? -kInf : static_cast<float>(wide);
        const float qn = query_norms[q];
        const float* rn = row_norms + row0;
        if (biases.empty()) {
          for (size_t j = 0; j < n; ++j) {
            marks[j] = values[j] >= coef * (rn[j] * qn);
          }
        } else {
          const float bias = biases[q];
          for (size_t j = 0; j < n; ++j) {
            marks[j] = bias + values[j] >= coef * (rn[j] * qn);
          }
        }
        return;
      }
      case kL2: {
        // sqrt is correctly rounded and monotone, so value >= top² makes
        // sqrt(value) >= top exactly; compare against the least float at
        // or above top² (the square is exact in double). No slack needed.
        const double square = static_cast<double>(top) * top;
        float bound = square > kFloatMax ? kInf : static_cast<float>(square);
        if (static_cast<double>(bound) < square) {
          bound = std::nextafter(bound, kInf);
        }
        for (size_t j = 0; j < n; ++j) marks[j] = values[j] < bound;
        return;
      }
      case kRaw:
        for (size_t j = 0; j < n; ++j) marks[j] = values[j] < top;
        return;
    }
  }
};

// Calls visit(j) for each j < n with marks[j] (0 or 1) set, in ascending
// order, until visit returns false; returns the index just past the last
// row visited then, or n. Eight marks are read as one word, so a run where
// few rows pass costs about n / 8 tests, and a word's set marks are walked
// bit by bit.
template <typename Visit>
size_t WalkMarked(const uint8_t* marks, size_t n, Visit&& visit) {
  size_t j = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; j + 8 <= n; j += 8) {
      uint64_t word;
      std::memcpy(&word, marks + j, sizeof(word));
      for (; word != 0; word &= word - 1) {
        const size_t at = j + static_cast<size_t>(std::countr_zero(word)) / 8;
        if (!visit(at)) return at + 1;
      }
    }
  }
  for (; j < n; ++j) {
    if (marks[j] && !visit(j)) return j + 1;
  }
  return n;
}

// The scans' one block → bound → heap consumer. `kernel(base, count, out)`
// writes the kernel values of rows [base, base + count) for every query,
// query-major, into out[q * count + i]. Each block is loaded from memory
// once for all queries; the heaps then consume it query-major, in
// ascending row order per query. Until a query's heap holds `cap` rows,
// every row goes in; after that each run of kMarkRows rows is first marked
// against the heap top, and only marked rows reach the exact score and
// HeapPush. While the heap is ordered its top only falls as rows enter, so
// the bound taken at the run's start stays conservative for all of it. A
// NaN kept during the fill leaves std::priority_queue without a strict weak
// order, and a push can then raise the top: whenever it does, the rest of
// the run is re-marked against the raised top.
template <typename BlockKernel>
std::vector<TopKHeap> ScanBlocks(const ScoreSpace& space, size_t num_queries,
                                 size_t num_rows, size_t cap,
                                 BlockKernel&& kernel) {
  std::vector<TopKHeap> heaps(num_queries);
  std::vector<float> block(num_queries * std::min(num_rows, kBlockRows));
  uint8_t marks[kMarkRows];
  for (size_t base = 0; base < num_rows; base += kBlockRows) {
    const size_t count = std::min(kBlockRows, num_rows - base);
    kernel(base, count, block.data());
    for (size_t q = 0; q < num_queries; ++q) {
      const float* values = block.data() + q * count;
      TopKHeap& heap = heaps[q];
      size_t i = 0;
      for (; i < count && heap.size() < cap; ++i) {
        heap.emplace(space.Exact(values[i], q, base + i), base + i);
      }
      for (; i < count; i += kMarkRows) {
        const size_t end = std::min(i + kMarkRows, count);
        for (size_t from = i; from < end;) {
          const float top = heap.top().first;
          const float* chunk = values + from;
          const size_t first = base + from;
          space.Mark(chunk, q, first, end - from, top, marks);
          from += WalkMarked(marks, end - from, [&](size_t j) {
            HeapPush(heap, cap, space.Exact(chunk[j], q, first + j),
                     first + j);
            return heap.top().first <= top;
          });
        }
      }
    }
  }
  return heaps;
}

}  // namespace

std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const float* rows, const float* row_norms, size_t num_rows, size_t dim,
    Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const bool cosine = metric == Metric::kCosine;
  ScoreSpace space{cosine ? ScoreSpace::kCosine : ScoreSpace::kL2};
  if (cosine) {
    space.row_norms = row_norms;
    space.query_norms.resize(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      space.query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
    }
  }

  const auto multi = cosine ? kernels.dot_multi : kernels.l2sq_multi;
  std::vector<TopKHeap> heaps = ScanBlocks(
      space, num_queries, num_rows, k,
      [&](size_t base, size_t count, float* block) {
        multi(queries, num_queries, rows + base * dim, count, dim, block);
      });
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
  ScoreSpace space{cosine ? ScoreSpace::kCosine : ScoreSpace::kRaw};
  if (cosine) {
    space.row_norms = row_norms;
    space.query_norms.resize(num_queries);
    space.biases.resize(num_queries);
  }
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query = queries + q * dim;
    float* p = prep.data() + q * dim;
    if (cosine) {
      float bias = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        p[i] = query[i] * scale[i];
        bias += query[i] * offset[i];
      }
      space.biases[q] = bias;
      space.query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
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
  const auto multi = cosine ? kernels.dot_multi_sq8 : kernels.l2sq_multi_sq8;
  std::vector<TopKHeap> heaps = ScanBlocks(
      space, num_queries, num_rows, candidates,
      [&](size_t base, size_t count, float* block) {
        multi(prep.data(), num_queries, codes + base * dim, count, dim, block);
      });

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
                       space.query_norms[q])
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
