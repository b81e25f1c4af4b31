// The encoder slots of the kernel seam (kernels/kernels.h): gemm_nn,
// gemm_nt and gelu. Scalar/SIMD agreement over every row and column tail
// shape, IEEE propagation of NaN/inf (the scalar reference no longer skips
// zeros), bit-exact row invariance, GELU against the std::tanh formula,
// and the lake_search encoder end to end under both kernel sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/embedder.h"
#include "core/input_encoder.h"
#include "core/model.h"
#include "kernels/kernels.h"
#include "lakebench/corpus.h"
#include "lakebench/datagen.h"
#include "nn/ops.h"
#include "sketch/table_sketch.h"
#include "test_util.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace tsfm::kernels {
namespace {

using testutil::RandomRows;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Pins the process-wide kernel selection for one scope.
class ScopedKernels {
 public:
  explicit ScopedKernels(const KernelDispatch& set) {
    internal::OverrideKernelsForTest(&set);
  }
  ~ScopedKernels() { internal::OverrideKernelsForTest(nullptr); }
};

// The documented contract: kernel sets agree within 1e-4 relative (floored
// at 1 so near-zero values compare absolutely), as for the distance slots.
bool WithinContract(float a, float b) {
  const float scale = std::max({1.0f, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-4f * scale;
}

std::vector<float> Gemm(GemmFn fn, const std::vector<float>& a,
                        const std::vector<float>& b, size_t m, size_t k,
                        size_t n) {
  // Pre-filled with garbage: the kernels overwrite C, never accumulate.
  std::vector<float> c(m * n, 12345.0f);
  fn(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

// Runs gemm_nn and gemm_nt on random operands of one shape under both
// sets and counts the elements outside the contract.
size_t GemmMismatches(Rng* rng, size_t m, size_t k, size_t n) {
  const KernelDispatch& scalar = ScalarKernels();
  const KernelDispatch& best = BestKernels();
  const auto a = RandomRows(rng, m, k);
  const auto b = RandomRows(rng, k, n);  // [k,n] for NN, read as [n,k] for NT
  size_t bad = 0;
  for (const bool nt : {false, true}) {
    const auto want = Gemm(nt ? scalar.gemm_nt : scalar.gemm_nn, a, b, m, k, n);
    const auto got = Gemm(nt ? best.gemm_nt : best.gemm_nn, a, b, m, k, n);
    for (size_t i = 0; i < want.size(); ++i) {
      if (!WithinContract(want[i], got[i])) {
        ADD_FAILURE() << (nt ? "gemm_nt" : "gemm_nn") << " m=" << m
                      << " k=" << k << " n=" << n << " at " << i << ": "
                      << want[i] << " vs " << got[i];
        ++bad;
      }
    }
  }
  return bad;
}

// ------------------------------------------------------------------ GEMM

TEST(GemmKernelsTest, SetsAgreeForEveryRowAndColumnCount) {
  // Every m and n in 1..70 (all 4-row tile remainders, all 16/8-column
  // panel remainders and every masked tail width) at depths covering a
  // single step, sub-vector, head-width and odd depths.
  Rng rng(71);
  for (const size_t k : {1u, 7u, 16u, 33u}) {
    for (size_t m = 1; m <= 70; ++m) {
      for (size_t n = 1; n <= 70; ++n) {
        ASSERT_EQ(GemmMismatches(&rng, m, k, n), 0u);
      }
    }
  }
}

TEST(GemmKernelsTest, SetsAgreeForEveryDepth) {
  // Every k in 1..70 against tile-boundary row and column counts.
  Rng rng(72);
  for (size_t k = 1; k <= 70; ++k) {
    for (const size_t m : {1u, 3u, 4u, 5u, 17u, 70u}) {
      for (const size_t n : {1u, 7u, 8u, 15u, 16u, 17u, 33u, 70u}) {
        ASSERT_EQ(GemmMismatches(&rng, m, k, n), 0u);
      }
    }
  }
}

TEST(GemmKernelsTest, EmptyDimensions) {
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    // k == 0: C is the empty sum, zero everywhere.
    const auto nn = Gemm(kd->gemm_nn, {}, {}, 3, 0, 5);
    const auto nt = Gemm(kd->gemm_nt, {}, {}, 3, 0, 5);
    for (size_t i = 0; i < 15; ++i) {
      EXPECT_EQ(nn[i], 0.0f) << kd->name;
      EXPECT_EQ(nt[i], 0.0f) << kd->name;
    }
    // m == 0 or n == 0: nothing to write, nothing read out of bounds.
    const std::vector<float> one(4, 1.0f);
    EXPECT_TRUE(Gemm(kd->gemm_nn, {}, one, 0, 4, 1).empty());
    EXPECT_TRUE(Gemm(kd->gemm_nt, one, {}, 1, 4, 0).empty());
  }
}

TEST(GemmKernelsTest, NonFiniteInBReachesOutputUnderZeroInA) {
  // 0 * NaN and 0 * inf are NaN in IEEE arithmetic. The scalar reference
  // used to skip zero entries of A, which turned both into 0 and made it
  // disagree with every SIMD path on exactly these inputs.
  constexpr size_t m = 5, k = 9, n = 19;
  for (const float poison : {kNaN, kInf, -kInf}) {
    for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
      std::vector<float> a(m * k, 1.0f);
      std::vector<float> b(k * n, 1.0f);
      a[2 * k + 4] = 0.0f;           // A[2][4]
      b[4 * n + 17] = poison;        // B[4][17] for NN
      const auto nn = Gemm(kd->gemm_nn, a, b, m, k, n);
      EXPECT_TRUE(std::isnan(nn[2 * n + 17])) << kd->name << " " << poison;
      std::vector<float> bt(n * k, 1.0f);
      bt[17 * k + 4] = poison;       // B[17][4] for NT
      const auto nt = Gemm(kd->gemm_nt, a, bt, m, k, n);
      EXPECT_TRUE(std::isnan(nt[2 * n + 17])) << kd->name << " " << poison;
      // The other cells of that row and column stay finite or inf, never
      // silently 0 * inf = 0 elsewhere.
      EXPECT_FALSE(std::isnan(nn[2 * n + 16])) << kd->name;
    }
  }
  // Through the op, under whatever set the process selected.
  std::vector<float> a(2 * 3, 1.0f);
  std::vector<float> b(3 * 2, 1.0f);
  a[1] = 0.0f;
  b[1 * 2 + 0] = kNaN;
  nn::Var c = nn::MatMul(nn::MakeLeaf(nn::Tensor(2, 3, a), false),
                         nn::MakeLeaf(nn::Tensor(3, 2, b), false));
  EXPECT_TRUE(std::isnan(c->value().at(0, 0)));
  EXPECT_EQ(c->value().at(0, 1), 2.0f);
}

// Row i of C must carry the same bits whether A has one row or many, and
// whichever slot of the 4-row tile it lands in (0..3 leading pad rows).
void ExpectRowInvariant(const KernelDispatch& kd, bool nt, size_t m,
                        size_t k, size_t n, Rng* rng) {
  const GemmFn fn = nt ? kd.gemm_nt : kd.gemm_nn;
  const auto a = RandomRows(rng, m, k);
  const auto b = RandomRows(rng, k, n);
  const auto full = Gemm(fn, a, b, m, k, n);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<float> row(a.begin() + i * k, a.begin() + (i + 1) * k);
    const auto alone = Gemm(fn, row, b, 1, k, n);
    EXPECT_EQ(std::memcmp(alone.data(), full.data() + i * n, n * 4), 0)
        << kd.name << (nt ? " nt" : " nn") << " m=" << m << " k=" << k
        << " n=" << n << " row " << i;
  }
  for (size_t pad = 1; pad < 4; ++pad) {
    auto shifted = RandomRows(rng, pad, k);
    shifted.insert(shifted.end(), a.begin(), a.end());
    const auto c = Gemm(fn, shifted, b, m + pad, k, n);
    EXPECT_EQ(std::memcmp(c.data() + pad * n, full.data(), m * n * 4), 0)
        << kd.name << (nt ? " nt" : " nn") << " m=" << m << " k=" << k
        << " n=" << n << " pad " << pad;
  }
}

TEST(GemmKernelsTest, RowsAreBitIdenticalWhateverTheirTile) {
  Rng rng(73);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    for (const bool nt : {false, true}) {
      for (const size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 9u, 13u}) {
        for (const size_t k : {1u, 16u, 33u}) {
          for (const size_t n : {1u, 5u, 8u, 13u, 16u, 23u, 32u, 37u}) {
            ExpectRowInvariant(*kd, nt, m, k, n, &rng);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------ GELU

// The formula nn::Gelu has always used (BERT's tanh approximation).
float GeluReference(float v) {
  const float inner = 0.7978845608028654f * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(inner));
}

bool GeluAgrees(float want, float got) {
  if (std::isnan(want) || std::isnan(got)) {
    return std::isnan(want) && std::isnan(got);
  }
  if (std::isinf(want) || std::isinf(got)) return want == got;
  return std::abs(want - got) <= 1e-4f * std::abs(want) + 1e-6f;
}

TEST(GeluKernelsTest, MatchesTanhReference) {
  // [-10, 10] in steps of 1e-3, then the values where the formula's
  // intermediates overflow or are not numbers at all.
  std::vector<float> x;
  for (int i = -10000; i <= 10000; ++i) {
    x.push_back(static_cast<float>(i) * 1e-3f);
  }
  for (const float v : {kInf, -kInf, kNaN, 0.0f, -0.0f, 1e20f, -1e20f,
                        30.0f, -30.0f, 1e-30f, -1e-30f}) {
    x.push_back(v);
  }
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    std::vector<float> out(x.size());
    kd->gelu(x.data(), out.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(GeluAgrees(GeluReference(x[i]), out[i]))
          << kd->name << " gelu(" << x[i] << ") = " << out[i] << ", want "
          << GeluReference(x[i]);
    }
  }
  // The scalar set is the reference itself.
  std::vector<float> out(x.size());
  ScalarKernels().gelu(x.data(), out.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const float want = GeluReference(x[i]);
    if (!std::isnan(want)) {
      EXPECT_EQ(out[i], want) << x[i];
    }
  }
}

TEST(GeluKernelsTest, TailsAndInPlace) {
  // Every length 1..17 (full vectors plus each masked tail), in place:
  // lanes past n must stay untouched.
  Rng rng(74);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    for (size_t n = 1; n <= 17; ++n) {
      auto x = RandomRows(&rng, 1, n + 3);
      const auto before = x;
      kd->gelu(x.data(), x.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(GeluAgrees(GeluReference(before[i]), x[i]))
            << kd->name << " n=" << n << " i=" << i;
      }
      for (size_t i = n; i < n + 3; ++i) EXPECT_EQ(x[i], before[i]);
    }
  }
}

// --------------------------------------------------------------- encoder

// lake_search's model: hidden 32, 2 layers, 2 heads, ffn 64, 16 MinHash
// slots — the encoder a CSV query runs through before it is searched. The
// weights are a function of the seed, so every instance is the same model.
struct LakeSearchEncoder {
  static text::Vocab MakeVocab() {
    lakebench::DomainCatalog catalog(99, 100);
    lakebench::CorpusScale scale;
    scale.num_tables = 12;
    scale.augmentations = 0;
    return lakebench::BuildVocabFromTables(
        lakebench::MakePretrainCorpus(catalog, scale, 99),
        /*include_cells=*/false);
  }
  static core::TabSketchFMConfig MakeConfig(size_t vocab_size) {
    core::TabSketchFMConfig config;
    config.encoder.hidden = 32;
    config.encoder.num_layers = 2;
    config.encoder.num_heads = 2;
    config.encoder.ffn_dim = 64;
    config.encoder.dropout = 0.0f;
    config.vocab_size = vocab_size;
    config.num_perm = 16;
    return config;
  }

  text::Vocab vocab = MakeVocab();
  core::TabSketchFMConfig config = MakeConfig(vocab.size());
  Rng rng{1};
  core::TabSketchFM model{config, &rng};
  text::Tokenizer tokenizer{&vocab};
  core::InputEncoder input_encoder{&config, &tokenizer};
  core::Embedder embedder{&model, &input_encoder};
};

// Seeded 32-row lakebench domain tables, sketched with 16 MinHash slots.
std::vector<TableSketch> QuerySketches(size_t count) {
  const lakebench::DomainCatalog catalog(99, 100);
  SketchOptions options;
  options.num_perm = 16;
  Rng rng(75);
  std::vector<TableSketch> sketches;
  for (size_t t = 0; t < count; ++t) {
    const auto& domain =
        catalog.domain(rng.Uniform(static_cast<uint32_t>(catalog.size())));
    sketches.push_back(BuildTableSketch(
        lakebench::GenerateDomainTable(domain, "t" + std::to_string(t), 32,
                                       &rng),
        options));
  }
  return sketches;
}

TEST(EncoderKernelsTest, ColumnEmbeddingsAgreeBetweenKernelSets) {
  const LakeSearchEncoder encoder;
  const auto sketches = QuerySketches(8);
  for (size_t t = 0; t < sketches.size(); ++t) {
    std::vector<std::vector<float>> want, got;
    {
      ScopedKernels pin(ScalarKernels());
      want = encoder.embedder.ColumnEmbeddings(sketches[t]);
    }
    {
      ScopedKernels pin(BestKernels());
      got = encoder.embedder.ColumnEmbeddings(sketches[t]);
    }
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(want[c].size(), 96u);
      ASSERT_EQ(got[c].size(), want[c].size());
      for (size_t d = 0; d < want[c].size(); ++d) {
        EXPECT_TRUE(WithinContract(want[c][d], got[c][d]))
            << "table " << t << " column " << c << " dim " << d << ": "
            << want[c][d] << " vs " << got[c][d];
      }
    }
  }
}

TEST(EncoderKernelsTest, ConcurrentEmbeddingsMatchSingleThreaded) {
  // Query clients embed on their own threads, each with its own model
  // stack, through the one process-wide kernel set. Kernel scratch is per
  // thread, so concurrent passes give exactly the single-threaded bits.
  const auto sketches = QuerySketches(6);
  std::vector<std::vector<std::vector<float>>> want;
  {
    const LakeSearchEncoder encoder;
    for (const auto& sketch : sketches) {
      want.push_back(encoder.embedder.ColumnEmbeddings(sketch));
    }
  }
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<std::vector<float>>>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&sketches, &out = got[i]] {
      const LakeSearchEncoder encoder;
      for (int round = 0; round < 3; ++round) {
        for (const auto& sketch : sketches) {
          out.push_back(encoder.embedder.ColumnEmbeddings(sketch));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_EQ(got[i].size(), 3 * sketches.size());
    for (size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j], want[j % sketches.size()])
          << "thread " << i << " pass " << j;
    }
  }
}

}  // namespace
}  // namespace tsfm::kernels
