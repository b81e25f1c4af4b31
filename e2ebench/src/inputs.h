// Seeded inputs for the end-to-end benchmark, and the model stack that
// turns a CSV table into column embeddings the way `lake_search` does.
//
// Everything the program under test receives is generated here from the
// workload seed: the lake's tables and the query tables as CSV text, the
// fresh tables a writer ingests, and the query stream's shape (union or
// join, which join column). The same seed gives byte-identical inputs.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "core/input_encoder.h"
#include "core/model.h"
#include "sketch/table_sketch.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/random.h"

namespace e2e {

/// Sizes of one workload's generated inputs.
struct InputShape {
  size_t lake_tables = 0;
  size_t query_tables = 0;  ///< held out from the lake
  size_t fresh_tables = 0;  ///< ingested by ADD_TABLE during the run
  size_t rows = 32;         ///< rows per generated table
};

/// One query of the stream: a held-out table, asked as a union query over
/// all its columns or as a join query on one seeded column.
struct QuerySpec {
  size_t table = 0;  ///< index into Inputs::query_csv
  bool union_query = true;
  size_t join_column = 0;
};

struct Inputs {
  std::vector<std::string> lake_ids;
  std::vector<std::string> lake_csv;
  std::vector<std::string> query_csv;
  std::vector<QuerySpec> queries;  ///< one per query table
  std::vector<std::string> fresh_ids;
  std::vector<std::string> fresh_csv;
};

/// Generates every input of a workload from `seed` with lakebench datagen
/// (DomainCatalog + GenerateDomainTable + WriteCsv).
Inputs GenerateInputs(const InputShape& shape, uint64_t seed);

/// \brief The `lake_search` model stack: fixed vocabulary and config,
/// 96-d column embeddings.
///
/// Not thread-safe; give each thread its own. Members hold pointers into
/// each other, so the stack is neither copyable nor movable.
struct ModelStack {
  ModelStack();
  ModelStack(const ModelStack&) = delete;
  ModelStack& operator=(const ModelStack&) = delete;

  size_t dim() const;

  tsfm::text::Vocab vocab;
  tsfm::core::TabSketchFMConfig config;
  tsfm::Rng rng;
  tsfm::core::TabSketchFM model;
  tsfm::text::Tokenizer tokenizer;
  tsfm::core::InputEncoder input_encoder;
  tsfm::core::Embedder embedder;
};

/// Sketch options matching the model config (num_perm 16).
tsfm::SketchOptions LakeSketchOptions();

/// Parse + infer + sketch + embed in one call, untimed. Aborts on a parse
/// failure: generated inputs always parse.
std::vector<std::vector<float>> EmbedCsv(const ModelStack& stack,
                                         const std::string& csv);

/// FNV-1a over a byte string, chained through `h`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t h = 1469598103934665603ull);

/// One hash over every byte of `inputs` (ids, CSV text, query shapes).
uint64_t Fingerprint(const Inputs& inputs);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
