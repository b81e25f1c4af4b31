// Flat top-k scans — the search stack's hot loops over contiguous rows.
//
// KnnIndex::Search and SearchBatch end here: rows stream through the
// multi-query kernels of the process-wide kernel set (kernels/kernels.h)
// in blocks while one bounded (distance, row) heap per query keeps that
// query's best k, so the inner loop is pure SIMD with no per-row indirect
// dispatch. A single query is a batch of one. Float rows and SQ8 code rows
// with an exact rescore share that shape. Every scan has an overload
// pinned to an explicit kernel set for parity tests and benches.
//
// Admission bound. Once a query's heap is full, a row can enter it only if
// its distance is strictly below the heap top's (every kept row precedes
// it, so a tie loses the row tie-break). Each block is therefore first
// marked in the kernel's raw space against the current top — cosine keeps
// a row only if dot >= (1 - top - slack)·‖q‖·‖r‖, float L2 compares the
// squared value with top² rounded up, SQ8 cosine tests bias + dot, and the
// SQ8 L2 proxy tests its value against the top directly — and only marked
// rows go through the exact distance and the heap. The skip is
// conservative: a mark is cleared only where !(distance < top) is certain,
// including zero norms, a +inf or NaN top, and NaN or ±inf rows. A NaN
// kept while a heap fills leaves it unordered, so a push can raise its
// top; the rest of the block is then re-marked against the raised top. So
// the heaps see the same pushes in the same order, and every result below is
// BIT-IDENTICAL to scoring every row through the heap (same rows, same
// distance bits, same tie-breaks); tests/scan_test.cc keeps that unpruned
// loop as its oracle.
#ifndef TSFM_SEARCH_SCAN_H_
#define TSFM_SEARCH_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernels.h"

namespace tsfm::search {

/// Distance metrics understood by every index backend.
enum class Metric { kCosine, kL2 };

/// One row of a scan result.
struct ScanHit {
  float distance;
  size_t row;
};

class Sq8Codec;

/// \brief Multi-query top-k scan: one streaming pass over the rows for a
/// whole batch of queries ("mini-GEMM" scan).
///
/// `queries` holds `num_queries` row-major queries of length `dim`. The
/// rows stream through the dot_multi / l2sq_multi kernels block by block
/// while one bounded top-k heap per query tracks that query's best rows —
/// so each block of rows is loaded from memory once for the whole batch
/// instead of once per query. Result q is BIT-IDENTICAL to query q scanned
/// alone (`num_queries = 1`) under the same kernel set (same distances,
/// same rows, same tie-breaks): each (query, row) value does not depend on
/// the batch it sits in, and the heaps are per query. Returns up to `k`
/// hits per query sorted ascending by (distance, row). Under kCosine,
/// `row_norms` must hold the rows' L2 norms (query norms are computed
/// internally; zero norms yield kMaxCosineDistance). Under kL2,
/// `row_norms` is never read (it may be nullptr) and distances are
/// Euclidean (square-rooted). Rows that cannot enter a full heap are
/// skipped by the admission bound above without changing any result.
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const float* queries, size_t num_queries, const float* rows,
    const float* row_norms, size_t num_rows, size_t dim, Metric metric,
    size_t k);

/// ScanTopKMulti pinned to an explicit kernel set (parity tests, benches).
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const kernels::KernelDispatch& kernels, const float* queries,
    size_t num_queries, const float* rows, const float* row_norms,
    size_t num_rows, size_t dim, Metric metric, size_t k);

/// \brief Quantized flat scan: SQ8 code rows in, exact-in-decoded-space
/// top-k out, for a whole batch of queries.
///
/// Two phases. (1) Candidate scan: each query is pre-transformed per metric
/// (kCosine folds the codec's scale into the query and its offset into a
/// scalar bias, so the u8 dot is the decoded dot exactly; kL2 scans a
/// scale-weighted proxy in quantized units) and the batch streams through
/// the dot_multi_sq8 / l2sq_multi_sq8 kernels into one top-C heap per query
/// with C = max(4k, 64), behind the same admission bound as ScanTopKMulti.
/// (2) Exact rescore: each query's surviving candidate rows are decoded to
/// float and re-ranked with the pairwise float kernels, so the returned
/// hits carry the same distances a float scan over the decoded rows would
/// — the L2 proxy's scale weighting never reaches the caller. Under
/// kCosine, `row_norms` must hold the *decoded* rows' L2 norms; under kL2
/// it is never read (it may be nullptr). Per query the result is
/// bit-identical to that query scanned alone (`num_queries = 1`) under the
/// same kernel set, sorted ascending by (distance, row), up to k hits.
std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const float* queries, size_t num_queries, const uint8_t* codes,
    const Sq8Codec& codec, const float* row_norms, size_t num_rows,
    Metric metric, size_t k);

/// ScanTopKMultiSq8 pinned to an explicit kernel set.
std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const kernels::KernelDispatch& kernels, const float* queries,
    size_t num_queries, const uint8_t* codes, const Sq8Codec& codec,
    const float* row_norms, size_t num_rows, Metric metric, size_t k);

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SCAN_H_
