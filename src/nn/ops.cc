#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "util/logging.h"

namespace tsfm::nn {

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}  // namespace

Var MatMul(const Var& a, const Var& b) {
  const Tensor& A = a->value();
  const Tensor& B = b->value();
  TSFM_CHECK_EQ(A.cols(), B.rows());
  const size_t m = A.rows(), k = A.cols(), n = B.cols();
  Tensor C(m, n);
  kernels::Kernels().gemm_nn(A.data(), B.data(), C.data(), m, k, n);
  auto out = MakeOp(std::move(C), {a, b}, nullptr);
  if (out->requires_grad()) {
    Node* on = out.get();
    Var av = a, bv = b;
    out->set_backward([on, av, bv, m, k, n] {
      const Tensor& dC = on->grad();
      if (av->requires_grad()) {
        // dA = dC * B^T
        Tensor& dA = av->grad();
        const Tensor& B2 = bv->value();
        for (size_t i = 0; i < m; ++i) {
          const float* dcrow = dC.data() + i * n;
          float* darow = dA.data() + i * k;
          for (size_t kk = 0; kk < k; ++kk) {
            const float* brow = B2.data() + kk * n;
            float s = 0.0f;
            for (size_t j = 0; j < n; ++j) s += dcrow[j] * brow[j];
            darow[kk] += s;
          }
        }
      }
      if (bv->requires_grad()) {
        // dB = A^T * dC
        Tensor& dB = bv->grad();
        const Tensor& A2 = av->value();
        for (size_t i = 0; i < m; ++i) {
          const float* arow = A2.data() + i * k;
          const float* dcrow = dC.data() + i * n;
          for (size_t kk = 0; kk < k; ++kk) {
            const float avv = arow[kk];
            if (avv == 0.0f) continue;
            float* dbrow = dB.data() + kk * n;
            for (size_t j = 0; j < n; ++j) dbrow[j] += avv * dcrow[j];
          }
        }
      }
    });
  }
  return out;
}

Var MatMulNT(const Var& a, const Var& b) {
  const Tensor& A = a->value();
  const Tensor& B = b->value();
  TSFM_CHECK_EQ(A.cols(), B.cols());
  const size_t m = A.rows(), k = A.cols(), n = B.rows();
  Tensor C(m, n);
  kernels::Kernels().gemm_nt(A.data(), B.data(), C.data(), m, k, n);
  auto out = MakeOp(std::move(C), {a, b}, nullptr);
  if (out->requires_grad()) {
    Node* on = out.get();
    Var av = a, bv = b;
    out->set_backward([on, av, bv, m, k, n] {
      const Tensor& dC = on->grad();
      if (av->requires_grad()) {
        // dA = dC * B
        Tensor& dA = av->grad();
        const Tensor& B2 = bv->value();
        for (size_t i = 0; i < m; ++i) {
          const float* dcrow = dC.data() + i * n;
          float* darow = dA.data() + i * k;
          for (size_t j = 0; j < n; ++j) {
            const float d = dcrow[j];
            if (d == 0.0f) continue;
            const float* brow = B2.data() + j * k;
            for (size_t kk = 0; kk < k; ++kk) darow[kk] += d * brow[kk];
          }
        }
      }
      if (bv->requires_grad()) {
        // dB = dC^T * A
        Tensor& dB = bv->grad();
        const Tensor& A2 = av->value();
        for (size_t i = 0; i < m; ++i) {
          const float* dcrow = dC.data() + i * n;
          const float* arow = A2.data() + i * k;
          for (size_t j = 0; j < n; ++j) {
            const float d = dcrow[j];
            if (d == 0.0f) continue;
            float* dbrow = dB.data() + j * k;
            for (size_t kk = 0; kk < k; ++kk) dbrow[kk] += d * arow[kk];
          }
        }
      }
    });
  }
  return out;
}

Var Add(const Var& a, const Var& b) {
  TSFM_CHECK(a->value().SameShape(b->value()));
  Tensor out = a->value();
  out.Accumulate(b->value());
  auto node = MakeOp(std::move(out), {a, b}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var av = a, bv = b;
    node->set_backward([on, av, bv] {
      if (av->requires_grad()) av->grad().Accumulate(on->grad());
      if (bv->requires_grad()) bv->grad().Accumulate(on->grad());
    });
  }
  return node;
}

Var AddRow(const Var& x, const Var& row) {
  const Tensor& X = x->value();
  const Tensor& R = row->value();
  TSFM_CHECK_EQ(R.rows(), 1u);
  TSFM_CHECK_EQ(R.cols(), X.cols());
  Tensor out = X;
  for (size_t i = 0; i < X.rows(); ++i) {
    float* orow = out.data() + i * X.cols();
    for (size_t j = 0; j < X.cols(); ++j) orow[j] += R[j];
  }
  auto node = MakeOp(std::move(out), {x, row}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x, rv = row;
    node->set_backward([on, xv, rv] {
      const Tensor& d = on->grad();
      if (xv->requires_grad()) xv->grad().Accumulate(d);
      if (rv->requires_grad()) {
        Tensor& dr = rv->grad();
        for (size_t i = 0; i < d.rows(); ++i) {
          const float* drow = d.data() + i * d.cols();
          for (size_t j = 0; j < d.cols(); ++j) dr[j] += drow[j];
        }
      }
    });
  }
  return node;
}

Var Mul(const Var& a, const Var& b) {
  TSFM_CHECK(a->value().SameShape(b->value()));
  Tensor out = a->value();
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b->value()[i];
  auto node = MakeOp(std::move(out), {a, b}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var av = a, bv = b;
    node->set_backward([on, av, bv] {
      const Tensor& d = on->grad();
      if (av->requires_grad()) {
        for (size_t i = 0; i < d.size(); ++i) av->grad()[i] += d[i] * bv->value()[i];
      }
      if (bv->requires_grad()) {
        for (size_t i = 0; i < d.size(); ++i) bv->grad()[i] += d[i] * av->value()[i];
      }
    });
  }
  return node;
}

Var Scale(const Var& x, float s) {
  Tensor out = x->value();
  out.Scale(s);
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv, s] {
      const Tensor& d = on->grad();
      for (size_t i = 0; i < d.size(); ++i) xv->grad()[i] += d[i] * s;
    });
  }
  return node;
}

Var Sub(const Var& a, const Var& b) { return Add(a, Scale(b, -1.0f)); }

Var Gelu(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(X.rows(), X.cols());
  kernels::Kernels().gelu(X.data(), out.data(), X.size());
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv] {
      const Tensor& d = on->grad();
      const Tensor& X2 = xv->value();
      for (size_t i = 0; i < d.size(); ++i) {
        float v = X2[i];
        float inner = kGeluC * (v + 0.044715f * v * v * v);
        float t = std::tanh(inner);
        float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
        float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
        xv->grad()[i] += d[i] * grad;
      }
    });
  }
  return node;
}

Var Relu(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(X.rows(), X.cols());
  for (size_t i = 0; i < X.size(); ++i) out[i] = X[i] > 0.0f ? X[i] : 0.0f;
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv] {
      const Tensor& d = on->grad();
      const Tensor& X2 = xv->value();
      for (size_t i = 0; i < d.size(); ++i) {
        if (X2[i] > 0.0f) xv->grad()[i] += d[i];
      }
    });
  }
  return node;
}

Var Tanh(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(X.rows(), X.cols());
  for (size_t i = 0; i < X.size(); ++i) out[i] = std::tanh(X[i]);
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv] {
      const Tensor& d = on->grad();
      const Tensor& Y = on->value();
      for (size_t i = 0; i < d.size(); ++i) {
        xv->grad()[i] += d[i] * (1.0f - Y[i] * Y[i]);
      }
    });
  }
  return node;
}

Var Softmax(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(X.rows(), X.cols());
  for (size_t i = 0; i < X.rows(); ++i) {
    const float* row = X.data() + i * X.cols();
    float* orow = out.data() + i * X.cols();
    float mx = row[0];
    for (size_t j = 1; j < X.cols(); ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (size_t j = 0; j < X.cols(); ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    for (size_t j = 0; j < X.cols(); ++j) orow[j] /= sum;
  }
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv] {
      const Tensor& d = on->grad();
      const Tensor& Y = on->value();
      for (size_t i = 0; i < Y.rows(); ++i) {
        const float* yrow = Y.data() + i * Y.cols();
        const float* drow = d.data() + i * Y.cols();
        float dot = 0.0f;
        for (size_t j = 0; j < Y.cols(); ++j) dot += drow[j] * yrow[j];
        float* grow = xv->grad().data() + i * Y.cols();
        for (size_t j = 0; j < Y.cols(); ++j) {
          grow[j] += yrow[j] * (drow[j] - dot);
        }
      }
    });
  }
  return node;
}

Var LayerNorm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  const Tensor& X = x->value();
  const size_t n = X.cols();
  TSFM_CHECK_EQ(gamma->value().cols(), n);
  TSFM_CHECK_EQ(beta->value().cols(), n);
  Tensor out(X.rows(), n);
  // Cache per-row mean and inverse stddev for backward.
  auto means = std::make_shared<std::vector<float>>(X.rows());
  auto inv_stds = std::make_shared<std::vector<float>>(X.rows());
  for (size_t i = 0; i < X.rows(); ++i) {
    const float* row = X.data() + i * n;
    float mean = 0.0f;
    for (size_t j = 0; j < n; ++j) mean += row[j];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (size_t j = 0; j < n; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<float>(n);
    float inv = 1.0f / std::sqrt(var + eps);
    (*means)[i] = mean;
    (*inv_stds)[i] = inv;
    float* orow = out.data() + i * n;
    for (size_t j = 0; j < n; ++j) {
      orow[j] = (row[j] - mean) * inv * gamma->value()[j] + beta->value()[j];
    }
  }
  auto node = MakeOp(std::move(out), {x, gamma, beta}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x, gv = gamma, bv = beta;
    node->set_backward([on, xv, gv, bv, means, inv_stds, n] {
      const Tensor& d = on->grad();
      const Tensor& X2 = xv->value();
      for (size_t i = 0; i < X2.rows(); ++i) {
        const float* row = X2.data() + i * n;
        const float* drow = d.data() + i * n;
        const float mean = (*means)[i];
        const float inv = (*inv_stds)[i];
        // xhat_j = (x_j - mean) * inv
        // dgamma_j += d_j * xhat_j ; dbeta_j += d_j
        // dxhat_j = d_j * gamma_j
        // dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        float sum_dxhat = 0.0f, sum_dxhat_xhat = 0.0f;
        for (size_t j = 0; j < n; ++j) {
          float xhat = (row[j] - mean) * inv;
          float dxhat = drow[j] * gv->value()[j];
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat;
          if (gv->requires_grad()) gv->grad()[j] += drow[j] * xhat;
          if (bv->requires_grad()) bv->grad()[j] += drow[j];
        }
        if (xv->requires_grad()) {
          const float invn = 1.0f / static_cast<float>(n);
          float* grow = xv->grad().data() + i * n;
          for (size_t j = 0; j < n; ++j) {
            float xhat = (row[j] - mean) * inv;
            float dxhat = drow[j] * gv->value()[j];
            grow[j] += inv * (dxhat - sum_dxhat * invn - xhat * sum_dxhat_xhat * invn);
          }
        }
      }
    });
  }
  return node;
}

Var EmbeddingLookup(const Var& weight, const std::vector<int>& ids) {
  const Tensor& W = weight->value();
  Tensor out(ids.size(), W.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    TSFM_CHECK_GE(ids[i], 0);
    TSFM_CHECK_LT(static_cast<size_t>(ids[i]), W.rows());
    const float* src = W.data() + static_cast<size_t>(ids[i]) * W.cols();
    std::copy(src, src + W.cols(), out.data() + i * W.cols());
  }
  auto node = MakeOp(std::move(out), {weight}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var wv = weight;
    auto ids_copy = std::make_shared<std::vector<int>>(ids);
    node->set_backward([on, wv, ids_copy] {
      const Tensor& d = on->grad();
      Tensor& dW = wv->grad();
      const size_t cols = d.cols();
      for (size_t i = 0; i < ids_copy->size(); ++i) {
        float* dst = dW.data() + static_cast<size_t>((*ids_copy)[i]) * cols;
        const float* src = d.data() + i * cols;
        for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
      }
    });
  }
  return node;
}

Var Dropout(const Var& x, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return x;
  const Tensor& X = x->value();
  auto mask = std::make_shared<std::vector<float>>(X.size());
  const float keep_scale = 1.0f / (1.0f - p);
  Tensor out(X.rows(), X.cols());
  for (size_t i = 0; i < X.size(); ++i) {
    float m = rng->Bernoulli(p) ? 0.0f : keep_scale;
    (*mask)[i] = m;
    out[i] = X[i] * m;
  }
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv, mask] {
      const Tensor& d = on->grad();
      for (size_t i = 0; i < d.size(); ++i) xv->grad()[i] += d[i] * (*mask)[i];
    });
  }
  return node;
}

Var SliceCols(const Var& x, size_t start, size_t len) {
  const Tensor& X = x->value();
  TSFM_CHECK_LE(start + len, X.cols());
  Tensor out(X.rows(), len);
  for (size_t i = 0; i < X.rows(); ++i) {
    const float* src = X.data() + i * X.cols() + start;
    std::copy(src, src + len, out.data() + i * len);
  }
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv, start, len] {
      const Tensor& d = on->grad();
      Tensor& dX = xv->grad();
      for (size_t i = 0; i < d.rows(); ++i) {
        float* dst = dX.data() + i * dX.cols() + start;
        const float* src = d.data() + i * len;
        for (size_t j = 0; j < len; ++j) dst[j] += src[j];
      }
    });
  }
  return node;
}

Var ConcatCols(const std::vector<Var>& xs) {
  TSFM_CHECK(!xs.empty());
  const size_t rows = xs[0]->value().rows();
  size_t total_cols = 0;
  for (const auto& x : xs) {
    TSFM_CHECK_EQ(x->value().rows(), rows);
    total_cols += x->value().cols();
  }
  Tensor out(rows, total_cols);
  size_t offset = 0;
  for (const auto& x : xs) {
    const Tensor& X = x->value();
    for (size_t i = 0; i < rows; ++i) {
      std::copy(X.data() + i * X.cols(), X.data() + (i + 1) * X.cols(),
                out.data() + i * total_cols + offset);
    }
    offset += X.cols();
  }
  auto node = MakeOp(std::move(out), xs, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    auto parents = std::make_shared<std::vector<Var>>(xs);
    node->set_backward([on, parents, rows, total_cols] {
      const Tensor& d = on->grad();
      size_t off = 0;
      for (const auto& x : *parents) {
        const size_t cols = x->value().cols();
        if (x->requires_grad()) {
          Tensor& dX = x->grad();
          for (size_t i = 0; i < rows; ++i) {
            const float* src = d.data() + i * total_cols + off;
            float* dst = dX.data() + i * cols;
            for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
          }
        }
        off += cols;
      }
    });
  }
  return node;
}

Var SelectRow(const Var& x, size_t r) {
  const Tensor& X = x->value();
  TSFM_CHECK_LT(r, X.rows());
  Tensor out(1, X.cols());
  std::copy(X.data() + r * X.cols(), X.data() + (r + 1) * X.cols(), out.data());
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv, r] {
      const Tensor& d = on->grad();
      float* dst = xv->grad().data() + r * d.cols();
      for (size_t j = 0; j < d.cols(); ++j) dst[j] += d[j];
    });
  }
  return node;
}

Var MeanRows(const Var& x) {
  const Tensor& X = x->value();
  TSFM_CHECK_GT(X.rows(), 0u);
  Tensor out(1, X.cols());
  for (size_t i = 0; i < X.rows(); ++i) {
    const float* row = X.data() + i * X.cols();
    for (size_t j = 0; j < X.cols(); ++j) out[j] += row[j];
  }
  const float inv = 1.0f / static_cast<float>(X.rows());
  out.Scale(inv);
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv, inv] {
      const Tensor& d = on->grad();
      Tensor& dX = xv->grad();
      for (size_t i = 0; i < dX.rows(); ++i) {
        float* dst = dX.data() + i * d.cols();
        for (size_t j = 0; j < d.cols(); ++j) dst[j] += d[j] * inv;
      }
    });
  }
  return node;
}

Var MeanAll(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(1, 1);
  out[0] = X.Mean();
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    const float inv = 1.0f / static_cast<float>(X.size());
    node->set_backward([on, xv, inv] {
      const float d = on->grad()[0] * inv;
      Tensor& dX = xv->grad();
      for (size_t i = 0; i < dX.size(); ++i) dX[i] += d;
    });
  }
  return node;
}

Var SumAll(const Var& x) {
  const Tensor& X = x->value();
  Tensor out(1, 1);
  out[0] = X.Sum();
  auto node = MakeOp(std::move(out), {x}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var xv = x;
    node->set_backward([on, xv] {
      const float d = on->grad()[0];
      Tensor& dX = xv->grad();
      for (size_t i = 0; i < dX.size(); ++i) dX[i] += d;
    });
  }
  return node;
}

Var CrossEntropyLoss(const Var& logits, const std::vector<int>& targets,
                     int ignore_index) {
  const Tensor& L = logits->value();
  TSFM_CHECK_EQ(L.rows(), targets.size());
  const size_t C = L.cols();
  // Softmax probabilities cached for the backward pass.
  auto probs = std::make_shared<Tensor>(L.rows(), C);
  size_t active = 0;
  double loss_sum = 0.0;
  for (size_t i = 0; i < L.rows(); ++i) {
    const float* row = L.data() + i * C;
    float* prow = probs->data() + i * C;
    float mx = row[0];
    for (size_t j = 1; j < C; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (size_t j = 0; j < C; ++j) {
      prow[j] = std::exp(row[j] - mx);
      sum += prow[j];
    }
    for (size_t j = 0; j < C; ++j) prow[j] /= sum;
    if (targets[i] == ignore_index) continue;
    TSFM_CHECK_GE(targets[i], 0);
    TSFM_CHECK_LT(static_cast<size_t>(targets[i]), C);
    ++active;
    loss_sum += -std::log(std::max(prow[targets[i]], 1e-12f));
  }
  Tensor out(1, 1);
  out[0] = active > 0 ? static_cast<float>(loss_sum / active) : 0.0f;
  auto node = MakeOp(std::move(out), {logits}, nullptr);
  if (node->requires_grad() && active > 0) {
    Node* on = node.get();
    Var lv = logits;
    auto tgt = std::make_shared<std::vector<int>>(targets);
    const float inv = 1.0f / static_cast<float>(active);
    node->set_backward([on, lv, tgt, probs, inv, ignore_index, C] {
      const float d = on->grad()[0];
      Tensor& dL = lv->grad();
      for (size_t i = 0; i < dL.rows(); ++i) {
        if ((*tgt)[i] == ignore_index) continue;
        const float* prow = probs->data() + i * C;
        float* drow = dL.data() + i * C;
        for (size_t j = 0; j < C; ++j) {
          float g = prow[j];
          if (j == static_cast<size_t>((*tgt)[i])) g -= 1.0f;
          drow[j] += d * g * inv;
        }
      }
    });
  }
  return node;
}

Var MseLoss(const Var& pred, const std::vector<float>& targets) {
  const Tensor& P = pred->value();
  TSFM_CHECK_EQ(P.size(), targets.size());
  double sum = 0.0;
  for (size_t i = 0; i < P.size(); ++i) {
    double diff = P[i] - targets[i];
    sum += diff * diff;
  }
  Tensor out(1, 1);
  out[0] = static_cast<float>(sum / static_cast<double>(P.size()));
  auto node = MakeOp(std::move(out), {pred}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var pv = pred;
    auto tgt = std::make_shared<std::vector<float>>(targets);
    const float inv = 2.0f / static_cast<float>(P.size());
    node->set_backward([on, pv, tgt, inv] {
      const float d = on->grad()[0];
      Tensor& dP = pv->grad();
      for (size_t i = 0; i < dP.size(); ++i) {
        dP[i] += d * inv * (pv->value()[i] - (*tgt)[i]);
      }
    });
  }
  return node;
}

Var BceWithLogitsLoss(const Var& logits, const std::vector<float>& targets) {
  const Tensor& L = logits->value();
  TSFM_CHECK_EQ(L.size(), targets.size());
  double sum = 0.0;
  for (size_t i = 0; i < L.size(); ++i) {
    // Stable: max(x,0) - x*y + log(1 + exp(-|x|))
    float x = L[i], y = targets[i];
    sum += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::fabs(x)));
  }
  Tensor out(1, 1);
  out[0] = static_cast<float>(sum / static_cast<double>(L.size()));
  auto node = MakeOp(std::move(out), {logits}, nullptr);
  if (node->requires_grad()) {
    Node* on = node.get();
    Var lv = logits;
    auto tgt = std::make_shared<std::vector<float>>(targets);
    const float inv = 1.0f / static_cast<float>(L.size());
    node->set_backward([on, lv, tgt, inv] {
      const float d = on->grad()[0];
      Tensor& dL = lv->grad();
      for (size_t i = 0; i < dL.size(); ++i) {
        float x = lv->value()[i];
        float sig = 1.0f / (1.0f + std::exp(-x));
        dL[i] += d * inv * (sig - (*tgt)[i]);
      }
    });
  }
  return node;
}

}  // namespace tsfm::nn
