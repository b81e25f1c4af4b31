// The TabSketchFM model: six summed input embeddings feeding a BERT encoder
// (paper Fig 1 right panel, Fig 2a), with an MLM head for pretraining and a
// pooler for downstream heads.
#ifndef TSFM_CORE_MODEL_H_
#define TSFM_CORE_MODEL_H_

#include <memory>

#include "core/config.h"
#include "core/input_encoder.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/transformer.h"

namespace tsfm::core {

/// \brief Encoder + embedding layers of TabSketchFM.
///
/// Input embedding = token + token-position + column-position + column-type
/// + segment + Linear(MinHash vector) + Linear(numerical sketch), followed
/// by LayerNorm and dropout, then the transformer stack.
class TabSketchFM : public nn::Module {
 public:
  TabSketchFM(const TabSketchFMConfig& config, Rng* rng);

  /// Runs the encoder; returns contextual token states [seq, hidden].
  nn::Var Encode(const EncodedTable& input, bool training, Rng* rng) const;

  /// MLM logits [seq, vocab] from encoder states.
  nn::Var MlmLogits(const nn::Var& hidden_states) const;

  /// BERT pooler: tanh(Linear(h[0])) -> [1, hidden].
  nn::Var Pool(const nn::Var& hidden_states) const;

  /// The learned MinHash input projection of a raw MinHash vector
  /// (paper Sec III-B.5, E_{C||W}); used by the Embedder to expose the
  /// sketch-identity signal at small model scale (see "Scale
  /// substitutions" in docs/architecture.md).
  std::vector<float> ProjectMinHash(const std::vector<float>& minhash_input) const;

  /// The learned numerical-sketch input projection (paper Sec III-B.6).
  std::vector<float> ProjectNumerical(const std::vector<float>& numerical_input) const;

  void CollectParams(const std::string& prefix,
                     std::vector<nn::NamedParam>* out) const override;

  const TabSketchFMConfig& config() const { return config_; }

 private:
  TabSketchFMConfig config_;
  std::unique_ptr<nn::Embedding> token_emb_;
  std::unique_ptr<nn::Embedding> token_pos_emb_;
  std::unique_ptr<nn::Embedding> column_pos_emb_;
  std::unique_ptr<nn::Embedding> column_type_emb_;
  std::unique_ptr<nn::Embedding> segment_emb_;
  std::unique_ptr<nn::Linear> minhash_proj_;    ///< paper Sec III-B.5
  std::unique_ptr<nn::Linear> numerical_proj_;  ///< paper Sec III-B.6
  std::unique_ptr<nn::LayerNormModule> input_norm_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::unique_ptr<nn::Linear> mlm_transform_;
  std::unique_ptr<nn::LayerNormModule> mlm_norm_;
  std::unique_ptr<nn::Linear> mlm_decoder_;
  std::unique_ptr<nn::Linear> pooler_;
};

}  // namespace tsfm::core

#endif  // TSFM_CORE_MODEL_H_
