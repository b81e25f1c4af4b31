// TabSketchFM model configuration.
#ifndef TSFM_CORE_CONFIG_H_
#define TSFM_CORE_CONFIG_H_

#include <cstddef>

#include "nn/transformer.h"
#include "sketch/table_sketch.h"

namespace tsfm::core {

/// \brief Hyper-parameters of a TabSketchFM model.
///
/// The paper trains a 12-layer, 768-wide, 118M-parameter model on 4xA100;
/// the defaults here are the laptop-scale equivalent (see "Scale
/// substitutions" in docs/architecture.md). Every structural element — the
/// six summed embedding types, whole-column masking, the MLM head, the
/// cross-encoder head — is identical.
struct TabSketchFMConfig {
  nn::TransformerConfig encoder;   ///< depth/width of the BERT encoder
  size_t vocab_size = 0;           ///< set after building the vocabulary
  size_t max_seq_len = 96;         ///< hard cap on input tokens
  size_t max_token_pos = 8;        ///< positions within one column name
  size_t max_columns = 24;         ///< column-position embedding rows (0 = description)
  size_t num_perm = 32;            ///< MinHash slots; input width is 2x this
  float mlm_probability = 0.15f;   ///< masking rate for description tokens
  size_t max_masked_columns = 5;   ///< whole-column masks per table (paper Fig 3)
  size_t max_name_tokens = 4;      ///< token budget per column name

  /// Width of the per-token MinHash input vector (cell||word signature).
  size_t MinHashInputDim() const { return 2 * num_perm; }

  /// Width of the numerical sketch vector.
  size_t NumericalInputDim() const { return kNumericalSketchDim; }
};

}  // namespace tsfm::core

#endif  // TSFM_CORE_CONFIG_H_
