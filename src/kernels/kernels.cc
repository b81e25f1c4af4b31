#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace tsfm::kernels {

namespace {

// ------------------------------------------------------------------ scalar
// The reference set. Four independent accumulators: deterministic,
// autovectorizer-friendly, and closer to the SIMD lane sums than a single
// serial accumulator, which keeps the 1e-4 agreement contract comfortable.

float DotScalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

float L2SqScalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

// Asymmetric SQ8 references: float query, raw uint8 rows. Same
// four-accumulator shape as the float kernels so the SIMD agreement
// contract (1e-4 relative) carries over unchanged.

float DotSq8Scalar(const float* q, const uint8_t* row, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += q[i] * static_cast<float>(row[i]);
    s1 += q[i + 1] * static_cast<float>(row[i + 1]);
    s2 += q[i + 2] * static_cast<float>(row[i + 2]);
    s3 += q[i + 3] * static_cast<float>(row[i + 3]);
  }
  for (; i < n; ++i) s0 += q[i] * static_cast<float>(row[i]);
  return (s0 + s1) + (s2 + s3);
}

float L2SqSq8Scalar(const float* q, const uint8_t* row, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = q[i] - static_cast<float>(row[i]);
    const float d1 = q[i + 1] - static_cast<float>(row[i + 1]);
    const float d2 = q[i + 2] - static_cast<float>(row[i + 2]);
    const float d3 = q[i + 3] - static_cast<float>(row[i + 3]);
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = q[i] - static_cast<float>(row[i]);
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

// Multi-query reference kernels. The tile walks a block of rows for every
// query before moving on, so the row block stays hot in L1 across the
// whole query batch; within a (query, row) pair the arithmetic is the
// exact pairwise kernel, so every value is the same whatever the batch
// size and wherever the query sits in it (the contract ScanTopKMulti
// depends on).
constexpr size_t kMultiRowTile = 4;

void DotMultiScalar(const float* queries, size_t num_queries,
                    const float* rows, size_t num_rows, size_t dim,
                    float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = DotScalar(query, rows + r * dim, dim);
      }
    }
  }
}

void L2SqMultiScalar(const float* queries, size_t num_queries,
                     const float* rows, size_t num_rows, size_t dim,
                     float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = L2SqScalar(query, rows + r * dim, dim);
      }
    }
  }
}

void DotMultiSq8Scalar(const float* queries, size_t num_queries,
                       const uint8_t* rows, size_t num_rows, size_t dim,
                       float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = DotSq8Scalar(query, rows + r * dim, dim);
      }
    }
  }
}

void L2SqMultiSq8Scalar(const float* queries, size_t num_queries,
                        const uint8_t* rows, size_t num_rows, size_t dim,
                        float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = L2SqSq8Scalar(query, rows + r * dim, dim);
      }
    }
  }
}

// Encoder references. Plain loops in IEEE order: no zero-skipping, so a
// NaN or inf in either operand reaches every output it feeds, as it does
// on the SIMD paths. Each output accumulates over k in ascending order
// from 0, one row of A at a time — row invariance holds trivially.

void GemmNnScalar(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  std::fill(c, c + m * n, 0.0f);
  // ikj order: streams B rows, cache-friendly.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmNtScalar(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float s = 0.0f;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

void GeluScalar(const float* x, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kGeluC * (v + 0.044715f * v * v * v);
    out[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

constexpr KernelDispatch kScalarKernels = {
    .name = "scalar",
    .dot = DotScalar,
    .l2sq = L2SqScalar,
    .dot_multi = DotMultiScalar,
    .l2sq_multi = L2SqMultiScalar,
    .dot_multi_sq8 = DotMultiSq8Scalar,
    .l2sq_multi_sq8 = L2SqMultiSq8Scalar,
    .gemm_nn = GemmNnScalar,
    .gemm_nt = GemmNtScalar,
    .gelu = GeluScalar,
};

// -------------------------------------------------------------------- NEON
// aarch64 always has Advanced SIMD, so the kernels live in this TU behind
// the arch guard — no separate flags or runtime probe needed.
#if defined(__aarch64__)

float DotNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    i += 4;
  }
  float s = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float L2SqNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  if (i + 4 <= n) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
    i += 4;
  }
  float s = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// The float multi kernels loop the pairwise DotNeon/L2SqNeon per (query,
// row) instead of tiling queries into the NEON registers, so each pair's
// value is the pairwise kernel's whatever the batch.
void DotMultiNeon(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t r = 0; r < num_rows; ++r) {
      out[q * num_rows + r] = DotNeon(queries + q * dim, rows + r * dim, dim);
    }
  }
}

void L2SqMultiNeon(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t r = 0; r < num_rows; ++r) {
      out[q * num_rows + r] = L2SqNeon(queries + q * dim, rows + r * dim, dim);
    }
  }
}

// The sq8 multi kernels reuse the scalar reference on NEON for now: the
// widening u8 -> f32 ladder costs most of what the float FMA saves at
// these dims, and the bandwidth win (4x smaller rows) is ISA-independent.
// The encoder slots alias scalar too until a NEON GEMM tile is written.
constexpr KernelDispatch kNeonKernels = {
    .name = "neon",
    .dot = DotNeon,
    .l2sq = L2SqNeon,
    .dot_multi = DotMultiNeon,
    .l2sq_multi = L2SqMultiNeon,
    .dot_multi_sq8 = DotMultiSq8Scalar,
    .l2sq_multi_sq8 = L2SqMultiSq8Scalar,
    .gemm_nn = GemmNnScalar,
    .gemm_nt = GemmNtScalar,
    .gelu = GeluScalar,
};

#endif  // __aarch64__

// --------------------------------------------------------------- selection

bool ForceScalarFromEnv() {
  const char* v = std::getenv("LAKS_FORCE_SCALAR");
  // Any non-empty value other than "0" forces scalar.
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const KernelDispatch* SelectKernels(bool force_scalar) {
  if (force_scalar) return &kScalarKernels;
#if defined(TSFM_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return internal::Avx2Kernels();
  }
#endif
#if defined(__aarch64__)
  return &kNeonKernels;
#else
  return &kScalarKernels;
#endif
}

std::atomic<const KernelDispatch*> g_active{nullptr};

}  // namespace

const KernelDispatch& Kernels() {
  const KernelDispatch* active = g_active.load(std::memory_order_acquire);
  if (active == nullptr) {
    // Selection is deterministic, so a racing first call resolves to the
    // same set whichever store wins.
    const KernelDispatch* selected = SelectKernels(ForceScalarFromEnv());
    const KernelDispatch* expected = nullptr;
    g_active.compare_exchange_strong(expected, selected,
                                     std::memory_order_acq_rel);
    active = g_active.load(std::memory_order_acquire);
  }
  return *active;
}

const KernelDispatch& ScalarKernels() { return kScalarKernels; }

const KernelDispatch& BestKernels() {
  return *SelectKernels(/*force_scalar=*/false);
}

namespace internal {

void OverrideKernelsForTest(const KernelDispatch* kernels) {
  g_active.store(kernels != nullptr ? kernels
                                    : SelectKernels(ForceScalarFromEnv()),
                 std::memory_order_release);
}

bool ForceScalarFromEnvForTest() { return ForceScalarFromEnv(); }

float* ThreadScratch(size_t floats) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < floats) scratch.resize(floats);
  return scratch.data();
}

}  // namespace internal

float Norm(const float* a, size_t n) {
  return std::sqrt(Kernels().dot(a, a, n));
}

}  // namespace tsfm::kernels
