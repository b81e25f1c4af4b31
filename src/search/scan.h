// Flat top-k scans — the search stack's hot loops over contiguous rows.
//
// KnnIndex::Search and SearchBatch end here: rows stream through the
// multi-query kernels of the process-wide kernel set (kernels/kernels.h)
// in blocks while one bounded (distance, row) heap per query keeps that
// query's best k, so the inner loop is pure SIMD with no per-row indirect
// dispatch. A single query is a batch of one. Float rows and SQ8 code rows
// with an exact rescore share that shape. Every scan has an overload
// pinned to an explicit kernel set for parity tests and benches.
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
/// `row_norms` is ignored and distances are Euclidean (square-rooted).
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
/// with C = max(4k, 64). (2) Exact rescore: each query's surviving
/// candidate rows are decoded to float and re-ranked with the pairwise
/// float kernels, so the returned hits carry the same distances a float
/// scan over the decoded rows would — the L2 proxy's scale weighting never
/// reaches the caller. Under kCosine, `row_norms` must hold the *decoded*
/// rows' L2 norms; under kL2 it is ignored. Per query the result is
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
