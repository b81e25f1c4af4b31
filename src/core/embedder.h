// Table and column embeddings from a (fine-tuned) TabSketchFM model, plus
// the SBERT-concatenation variant (paper Sec IV-C).
#ifndef TSFM_CORE_EMBEDDER_H_
#define TSFM_CORE_EMBEDDER_H_

#include <vector>

#include "core/input_encoder.h"
#include "core/model.h"

namespace tsfm::core {

/// \brief Extracts dense embeddings for search indexing.
class Embedder {
 public:
  Embedder(const TabSketchFM* model, const InputEncoder* input_encoder,
           SketchAblation ablation = {})
      : model_(model), input_encoder_(input_encoder), ablation_(ablation) {}

  /// Table embedding: the pooler output of the single-table input.
  std::vector<float> TableEmbedding(const TableSketch& sketch) const;

  /// \brief Contextual column embeddings.
  ///
  /// Each column's embedding is the concatenation of three z-normalized
  /// blocks, all produced by the model:
  ///   1. the mean encoder state over the column's name-token span
  ///      (context: neighbouring columns, description, snapshot),
  ///   2. the learned MinHash input projection E_{C||W} of the column,
  ///   3. the learned numerical-sketch projection.
  /// Blocks 2 and 3 expose the sketch-identity signal directly; at the
  /// paper's 118M-parameter scale the encoder states carry it on their own,
  /// at this repo's CPU scale the shortcut keeps search viable (see "Scale
  /// substitutions" in docs/architecture.md). Ablation switches zero the
  /// corresponding blocks.
  /// Result is parallel to sketch.columns (columns truncated away by the
  /// sequence budget get zero context blocks).
  std::vector<std::vector<float>> ColumnEmbeddings(const TableSketch& sketch) const;

  /// Context-only variant of ColumnEmbeddings (block 1 alone); used by
  /// tests and ablation benches.
  std::vector<std::vector<float>> ContextualColumnStates(
      const TableSketch& sketch) const;

 private:
  const TabSketchFM* model_;
  const InputEncoder* input_encoder_;
  SketchAblation ablation_;
};

/// Z-normalizes `v` in place (zero mean, unit variance across dimensions).
/// No-op on near-constant vectors.
void ZNormalize(std::vector<float>* v);

/// The paper's TabSketchFM-SBERT combination: z-normalize both embeddings
/// so their scales match, then concatenate.
std::vector<float> NormalizeAndConcat(std::vector<float> a, std::vector<float> b);

}  // namespace tsfm::core

#endif  // TSFM_CORE_EMBEDDER_H_
