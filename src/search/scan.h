// Flat top-k scans — the search stack's hot loops over contiguous rows.
//
// KnnIndex::Search and SearchBatch end here: rows stream through the
// batch kernels of the process-wide kernel set (kernels/kernels.h) in
// blocks while a bounded (distance, row) heap keeps the best k, so the
// inner loop is pure SIMD with no per-row indirect dispatch. Float rows,
// SQ8 code rows with an exact rescore, and the multi-query variants the
// batched server uses all share that shape. Every scan has an overload
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

/// One row of a ScanTopK result.
struct ScanHit {
  float distance;
  size_t row;
};

/// \brief One-query-many-rows top-k scan: the flat backend's hot loop.
///
/// Streams `num_rows` row-major rows through the batch kernels in blocks
/// and keeps a bounded (distance, row) max-heap, so the inner loop is pure
/// SIMD with no per-row virtual or indirect dispatch. Returns up to `k`
/// hits sorted ascending by (distance, row). Under kCosine, `row_norms`
/// must hold the rows' L2 norms (the query's norm is computed internally;
/// zero norms yield kMaxCosineDistance). Under kL2, `row_norms` is ignored
/// and distances are Euclidean (square-rooted).
std::vector<ScanHit> ScanTopK(const float* query, const float* rows,
                              const float* row_norms, size_t num_rows,
                              size_t dim, Metric metric, size_t k);

/// ScanTopK pinned to an explicit kernel set (parity tests, benches).
std::vector<ScanHit> ScanTopK(const kernels::KernelDispatch& kernels,
                              const float* query, const float* rows,
                              const float* row_norms, size_t num_rows,
                              size_t dim, Metric metric, size_t k);

class Sq8Codec;

/// \brief Quantized flat scan: SQ8 code rows in, exact-in-decoded-space
/// top-k out.
///
/// Two phases. (1) Candidate scan: the query is pre-transformed per metric
/// (kCosine folds the codec's scale into the query and its offset into a
/// scalar bias, so the u8 dot is the decoded dot exactly; kL2 scans a
/// scale-weighted proxy in quantized units) and streamed through the
/// *_many_sq8 batch kernels into a top-C heap with C = max(4k, 64). (2)
/// Exact rescore: each surviving candidate row is decoded to float and
/// re-ranked with the pairwise float kernels, so the returned hits carry
/// the same distances a float scan over the decoded rows would — the L2
/// proxy's scale weighting never reaches the caller. Under kCosine,
/// `row_norms` must hold the *decoded* rows' L2 norms; under kL2 it is
/// ignored. Returns up to k hits sorted ascending by (distance, row).
std::vector<ScanHit> ScanTopKSq8(const float* query, const uint8_t* codes,
                                 const Sq8Codec& codec, const float* row_norms,
                                 size_t num_rows, Metric metric, size_t k);

/// ScanTopKSq8 pinned to an explicit kernel set (parity tests, benches).
std::vector<ScanHit> ScanTopKSq8(const kernels::KernelDispatch& kernels,
                                 const float* query, const uint8_t* codes,
                                 const Sq8Codec& codec, const float* row_norms,
                                 size_t num_rows, Metric metric, size_t k);

/// \brief Multi-query top-k scan: one streaming pass over the rows for a
/// whole batch of queries ("mini-GEMM" scan).
///
/// `queries` holds `num_queries` row-major queries of length `dim`. The
/// rows stream through the dot_multi / l2sq_multi kernels block by block
/// while one bounded top-k heap per query tracks that query's best rows —
/// so each block of rows is loaded from memory once for the whole batch
/// instead of once per query. Result q is BIT-IDENTICAL to
/// ScanTopK(query q, ...) under the same kernel set (same distances, same
/// rows, same tie-breaks): the multi kernels preserve each (query, row)
/// pair's accumulation order, and the heap logic is the same. Semantics
/// of `row_norms`, metric handling, and degenerate inputs match ScanTopK.
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const float* queries, size_t num_queries, const float* rows,
    const float* row_norms, size_t num_rows, size_t dim, Metric metric,
    size_t k);

/// ScanTopKMulti pinned to an explicit kernel set (parity tests, benches).
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const kernels::KernelDispatch& kernels, const float* queries,
    size_t num_queries, const float* rows, const float* row_norms,
    size_t num_rows, size_t dim, Metric metric, size_t k);

/// \brief Multi-query ScanTopKSq8: one candidate-scan pass over the u8
/// rows for the whole batch, then the usual per-query exact rescore.
///
/// Per query the result is bit-identical to ScanTopKSq8 under the same
/// kernel set: the per-query pre-transform, candidate count C, heap
/// tie-breaks, and decode-and-rescore phase are the same code paths; only
/// the candidate scan is blocked across queries (through dot_multi_sq8 /
/// l2sq_multi_sq8, which preserve per-pair accumulation order).
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
