// Differentiable operations over Vars.
//
// Every function builds the forward value eagerly and registers a backward
// closure on the tape. Shape contracts are checked with TSFM_CHECK — a shape
// bug aborts instead of silently corrupting training.
//
// The forward passes of MatMul, MatMulNT and Gelu run through the
// process-wide kernel set (kernels/kernels.h: AVX2+FMA where the CPU has
// it, scalar under LAKS_FORCE_SCALAR=1). Every backward closure is a plain
// scalar loop, which keeps it the reference nn_gradcheck_test checks.
#ifndef TSFM_NN_OPS_H_
#define TSFM_NN_OPS_H_

#include <vector>

#include "nn/autograd.h"
#include "util/random.h"

namespace tsfm::nn {

/// C[m,n] = A[m,k] * B[k,n].
Var MatMul(const Var& a, const Var& b);

/// C[m,n] = A[m,k] * B[n,k]^T  (matmul with transposed right operand;
/// used for attention scores Q K^T without a transpose op).
Var MatMulNT(const Var& a, const Var& b);

/// Element-wise sum; shapes must match.
Var Add(const Var& a, const Var& b);

/// Adds a [1,n] row vector to every row of X[m,n] (bias add).
Var AddRow(const Var& x, const Var& row);

/// Element-wise product; shapes must match.
Var Mul(const Var& a, const Var& b);

/// x * s for a compile-time-constant scalar.
Var Scale(const Var& x, float s);

/// a - b (element-wise).
Var Sub(const Var& a, const Var& b);

/// GELU activation (tanh approximation, as in BERT).
Var Gelu(const Var& x);

/// ReLU activation.
Var Relu(const Var& x);

/// tanh activation (BERT pooler uses it).
Var Tanh(const Var& x);

/// Row-wise softmax of X[m,n].
Var Softmax(const Var& x);

/// Layer normalization over each row with learnable gain/bias [1,n].
Var LayerNorm(const Var& x, const Var& gamma, const Var& beta, float eps = 1e-5f);

/// Gathers rows of `weight`[V,d] by token id -> [ids.size(), d].
/// Ids must be in [0, V).
Var EmbeddingLookup(const Var& weight, const std::vector<int>& ids);

/// Inverted dropout. Identity when !training or p == 0.
Var Dropout(const Var& x, float p, bool training, Rng* rng);

/// Columns [start, start+len) of X.
Var SliceCols(const Var& x, size_t start, size_t len);

/// Concatenates tensors with equal row counts along columns.
Var ConcatCols(const std::vector<Var>& xs);

/// Selects a single row r of X -> [1, n] (e.g. the CLS token).
Var SelectRow(const Var& x, size_t r);

/// Mean over rows -> [1, n] (mean pooling).
Var MeanRows(const Var& x);

/// Mean of all elements -> [1,1].
Var MeanAll(const Var& x);

/// Sum of all elements -> [1,1].
Var SumAll(const Var& x);

/// \brief Mean cross-entropy between logits[m,C] and integer targets.
///
/// targets[i] == ignore_index rows contribute nothing (used for unmasked
/// MLM positions). Returns [1,1]. Numerically stable (log-sum-exp).
Var CrossEntropyLoss(const Var& logits, const std::vector<int>& targets,
                     int ignore_index = -100);

/// Mean squared error between pred[m,n] and constant targets (same shape,
/// flattened row-major). Returns [1,1].
Var MseLoss(const Var& pred, const std::vector<float>& targets);

/// Mean binary cross-entropy with logits; targets in [0,1], flattened.
/// Returns [1,1].
Var BceWithLogitsLoss(const Var& logits, const std::vector<float>& targets);

}  // namespace tsfm::nn

#endif  // TSFM_NN_OPS_H_
