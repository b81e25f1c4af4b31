// Frozen off-the-shelf sentence encoder standing in for SBERT
// all-MiniLM-L12-v2 (paper Sec IV-C.1; substitution documented under
// "Scale substitutions" in docs/architecture.md).
//
// Embedding = L2-normalized sum of deterministic pseudo-random Gaussian
// vectors hashed from each word and each character trigram. Shared words
// and shared subword shapes across two texts yield high cosine similarity —
// the two signals (lexical value overlap, token-level semantics) the paper
// attributes to SBERT — with zero task supervision.
#ifndef TSFM_BASELINES_SBERT_LIKE_H_
#define TSFM_BASELINES_SBERT_LIKE_H_

#include <string>
#include <vector>

#include "table/table.h"

namespace tsfm::baselines {

/// \brief Deterministic hashing sentence encoder.
class SbertLikeEncoder {
 public:
  explicit SbertLikeEncoder(size_t dim = 64, uint64_t seed = 1234)
      : dim_(dim), seed_(seed) {}

  /// Sentence embedding of `text` (L2-normalized, `dim()` wide).
  std::vector<float> Embed(const std::string& text) const;

  /// Column embedding: top-100 distinct values as one sentence (the paper's
  /// simple-but-strong SBERT baseline).
  std::vector<float> EmbedColumn(const Table& table, size_t column) const;

  /// All column embeddings of a table.
  std::vector<std::vector<float>> EmbedColumns(const Table& table) const;

  size_t dim() const { return dim_; }

 private:
  // Adds the pseudo-random Gaussian vector of feature hash `h`, scaled.
  void AddFeature(uint64_t h, float scale, std::vector<float>* acc) const;

  size_t dim_;
  uint64_t seed_;
};

}  // namespace tsfm::baselines

#endif  // TSFM_BASELINES_SBERT_LIKE_H_
