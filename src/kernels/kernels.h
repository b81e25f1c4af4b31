// SIMD kernel dispatch — the lowest compute layer, shared by the encoder
// (nn) and the search stack.
//
// Every query in the repo bottoms out in two kinds of inner loop: the
// transformer's dense GEMMs and GELU (nn::MatMul, nn::MatMulNT, nn::Gelu,
// run once per query table to embed it) and the inner-product / L2 scans
// (KnnIndex::SearchBatch) or HNSW neighbour expansion (HnswIndex::Distance).
// This module owns those loops: a kernel set is selected once per process
// by runtime CPU detection — AVX2+FMA when the CPU has both, NEON on
// aarch64, portable scalar otherwise — and exposed as plain function
// pointers so the layers above never carry their own arithmetic.
//
// Distance semantics the seam guarantees (so callers cannot diverge):
//   - Cosine normalization lives HERE. CosineDistanceFromDot folds the
//     norm division and the zero-norm guard into the kernel layer; no
//     caller divides by norms itself.
//   - A zero-norm vector has no direction, so wherever norms are known
//     (CosineDistanceFromDot, and therefore the flat scan) its cosine
//     distance is kMaxCosineDistance (+inf): it ranks
//     strictly after every vector with a direction instead of
//     masquerading as "orthogonal". HnswIndex is the one exception: it
//     normalizes on insert, so a zero-norm input degrades to the zero
//     vector at distance 1.0 — see search/hnsw.h.
//   - Accumulation is in float on every path (the SIMD lanes are float;
//     the scalar reference matches). Kernel sets agree within 1e-4
//     relative on random vectors (property-tested in
//     tests/distance_kernels_test.cc) but are NOT bit-identical — never
//     compare distances across kernel sets with ==. The same 1e-4
//     contract covers the multi-query (*_multi) kernels against their
//     pairwise counterparts: the register tile may change the
//     accumulation order. Within one set, though, each (query, row) value
//     of a multi kernel is bit-identical whatever the batch size and
//     wherever the query sits in the batch (see MultiBatchKernelFn).
//
// Encoder semantics (gemm_nn, gemm_nt, gelu; tests/kernels_test.cc):
//   - The scalar set is the reference: plain IEEE loops, so a NaN or inf
//     anywhere in an operand reaches every output it contributes to (no
//     zero-skipping shortcut that would turn 0 * inf into 0).
//   - Every set agrees with the scalar set within 1e-4 relative (GELU:
//     1e-4 relative or 1e-6 absolute).
//   - Row invariance, bit-exact within one set: row i of C is a function
//     of row i of A and of B alone — the same bits whether A has one row
//     or many, and wherever row i falls in the register tile. So rows of
//     several tables can share one GEMM call without changing any table's
//     bits.
//
// Setting LAKS_FORCE_SCALAR=1 in the environment forces the scalar set
// regardless of CPU — for the encoder and the search stack alike — so
// SIMD/scalar parity is testable on any machine (CI runs the whole tier-1
// suite once per mode).
#ifndef TSFM_KERNELS_KERNELS_H_
#define TSFM_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace tsfm::kernels {

/// Cosine distance reported for a zero-norm vector (no direction — it must
/// rank after everything that has one).
inline constexpr float kMaxCosineDistance =
    std::numeric_limits<float>::infinity();

/// Norm-product guard below which cosine is treated as undefined.
inline constexpr float kNormProductEps = 1e-12f;

/// Pairwise kernel: one value from two length-`n` vectors.
using PairKernelFn = float (*)(const float* a, const float* b, size_t n);

/// \brief Multi-query batch ("mini-GEMM") kernel: `num_queries` row-major
/// queries of length `dim` against `num_rows` contiguous row-major rows,
/// writing out[q * num_rows + r].
///
/// This is what every flat scan streams through, a single query being a
/// batch of one: no per-row indirect call, the row loop lives inside the
/// selected ISA's translation unit, and the register tile walks several
/// queries and rows abreast so each row load from memory is shared by the
/// whole query tile instead of being re-fetched per query. Contract: the
/// value produced for every (q, r) pair is bit-identical whatever
/// `num_queries` is and wherever query q sits in the batch — the tile may
/// reorder which pair is computed when, but never the accumulation order
/// within a pair. search::ScanTopKMulti and KnnIndex::SearchBatch's query
/// chunking rely on this: a query returns the same hits alone or in any
/// batch. Values agree within 1e-4 with the scalar set and with the
/// pairwise kernels.
using MultiBatchKernelFn = void (*)(const float* queries, size_t num_queries,
                                    const float* rows, size_t num_rows,
                                    size_t dim, float* out);

/// \brief Asymmetric multi-query kernel: float queries against `num_rows`
/// row-major uint8 SQ8 code rows, same layout and contract as
/// MultiBatchKernelFn.
///
/// The kernels are codec-agnostic — they treat each byte as the number it
/// is (dot: sum q_i * u_i; l2sq: sum (q_i - u_i)^2) and
/// search::ScanTopKMultiSq8 pre-transforms each query per metric so the
/// affine calibration never enters the inner loop.
using MultiBatchKernelSq8Fn = void (*)(const float* queries,
                                       size_t num_queries,
                                       const uint8_t* rows, size_t num_rows,
                                       size_t dim, float* out);

/// \brief Dense GEMM over densely packed row-major matrices; C is
/// overwritten, not accumulated into.
///
/// gemm_nn: C[m,n] = A[m,k] · B[k,n].  gemm_nt: C[m,n] = A[m,k] · B[n,k]ᵀ.
/// Any of m, k, n may be 0 (k == 0 yields a zero C).
using GemmFn = void (*)(const float* a, const float* b, float* c, size_t m,
                        size_t k, size_t n);

/// Element-wise kernel: out[i] = f(x[i]) for i < n. `out` may alias `x`.
using UnaryFn = void (*)(const float* x, float* out, size_t n);

/// \brief One ISA's kernel set. Instances are immutable process-lifetime
/// statics; Kernels() picks one at first use.
struct KernelDispatch {
  const char* name;        ///< "scalar", "avx2-fma", or "neon"
  PairKernelFn dot;        ///< inner product
  PairKernelFn l2sq;       ///< squared Euclidean distance
  MultiBatchKernelFn dot_multi;    ///< dot of each query vs each row
  MultiBatchKernelFn l2sq_multi;   ///< squared L2 of each query vs each row
  MultiBatchKernelSq8Fn dot_multi_sq8;   ///< multi-query dot vs u8 rows
  MultiBatchKernelSq8Fn l2sq_multi_sq8;  ///< multi-query sq L2 vs u8 rows
  GemmFn gemm_nn;  ///< C = A · B (nn::MatMul forward)
  GemmFn gemm_nt;  ///< C = A · Bᵀ (nn::MatMulNT forward)
  UnaryFn gelu;    ///< BERT's tanh-approximate GELU (nn::Gelu forward)
};

/// \brief The kernel set this process uses, selected once at first call.
///
/// AVX2+FMA when compiled in and the CPU supports both, NEON on aarch64,
/// scalar otherwise; LAKS_FORCE_SCALAR=1 in the environment forces scalar.
const KernelDispatch& Kernels();

/// The portable scalar reference set (always available).
const KernelDispatch& ScalarKernels();

/// The best set for this CPU, ignoring the LAKS_FORCE_SCALAR override.
/// Lets parity tests and benches compare scalar vs SIMD in one process
/// even when the process-wide selection was forced scalar.
const KernelDispatch& BestKernels();

namespace internal {
/// Replaces the process-wide selection (nullptr restores the automatic
/// choice). Test-only: lets one process run the same work under two
/// kernel sets. Not safe while kernels run on other threads.
void OverrideKernelsForTest(const KernelDispatch* kernels);

/// Whether LAKS_FORCE_SCALAR currently forces the scalar set. Test-only:
/// lets the env-override test restore whatever selection the surrounding
/// process was launched with.
bool ForceScalarFromEnvForTest();

/// A per-thread scratch buffer of at least `floats` floats, valid until
/// the calling thread's next call. Defined in the portable TU so the AVX2
/// TU never instantiates a container template (see kernels_avx2.cc).
float* ThreadScratch(size_t floats);

/// The AVX2+FMA set. Defined in kernels_avx2.cc, which CMake compiles
/// (with -mavx2 -mfma) only on x86-64; referenced only under
/// TSFM_HAVE_AVX2_KERNELS and behind a runtime CPU check.
const KernelDispatch* Avx2Kernels();
}  // namespace internal

/// Inner product via the selected kernels.
inline float Dot(const float* a, const float* b, size_t n) {
  return Kernels().dot(a, b, n);
}

/// Squared Euclidean distance via the selected kernels.
inline float L2Sq(const float* a, const float* b, size_t n) {
  return Kernels().l2sq(a, b, n);
}

/// \brief Cosine distance from a precomputed dot product and norms.
///
/// The one place cosine normalization happens: 1 - dot / (|a||b|), with
/// zero-norm inputs mapped to kMaxCosineDistance. Callers with cached
/// norms (the flat index) use this instead of dividing themselves.
inline float CosineDistanceFromDot(float dot, float norm_a, float norm_b) {
  const float denom = norm_a * norm_b;
  return denom > kNormProductEps ? 1.0f - dot / denom : kMaxCosineDistance;
}

/// L2 norm of `a` via the selected kernels.
float Norm(const float* a, size_t n);

}  // namespace tsfm::kernels

#endif  // TSFM_KERNELS_KERNELS_H_
