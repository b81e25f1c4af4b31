#include "inputs.h"

#include <cstdlib>
#include <cstdio>

#include "lakebench/corpus.h"
#include "lakebench/datagen.h"
#include "table/csv.h"

namespace e2e {

using namespace tsfm;

namespace {

// Independent streams per input kind, so growing one list (say, more
// fresh tables for a longer run) leaves the others byte-identical.
constexpr uint64_t kLakeStream = 1;
constexpr uint64_t kQueryStream = 2;
constexpr uint64_t kFreshStream = 3;

std::string DomainTableCsv(const lakebench::DomainCatalog& catalog,
                           const std::string& id, size_t rows, Rng* rng) {
  const auto& domain = catalog.domain(rng->Uniform(
      static_cast<uint32_t>(catalog.size())));
  return WriteCsv(lakebench::GenerateDomainTable(domain, id, rows, rng));
}

std::string Numbered(const char* prefix, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06zu", prefix, i);
  return buf;
}

// lake_search's fixed config: hidden 32, 2 layers, 16 MinHash slots, so
// column embeddings are 32 + 2*16 + 32 = 96-d.
core::TabSketchFMConfig LakeSearchConfig(size_t vocab_size) {
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

text::Vocab LakeSearchVocab() {
  lakebench::DomainCatalog catalog(99, 100);
  lakebench::CorpusScale cscale;
  cscale.num_tables = 12;
  cscale.augmentations = 0;
  auto corpus = lakebench::MakePretrainCorpus(catalog, cscale, 99);
  return lakebench::BuildVocabFromTables(corpus, /*include_cells=*/false);
}

}  // namespace

Inputs GenerateInputs(const InputShape& shape, uint64_t seed) {
  lakebench::DomainCatalog catalog(seed, 400);
  Inputs in;
  Rng lake_rng(seed, kLakeStream);
  for (size_t i = 0; i < shape.lake_tables; ++i) {
    in.lake_ids.push_back(Numbered("lake_", i));
    in.lake_csv.push_back(
        DomainTableCsv(catalog, in.lake_ids.back(), shape.rows, &lake_rng));
  }
  Rng query_rng(seed, kQueryStream);
  for (size_t i = 0; i < shape.query_tables; ++i) {
    in.query_csv.push_back(
        DomainTableCsv(catalog, Numbered("query_", i), shape.rows, &query_rng));
    QuerySpec spec;
    spec.table = i;
    spec.union_query = query_rng.Uniform(2) == 0;
    // Every domain schema has at least one column; the join column is
    // drawn over the parsed table's width when the query runs.
    spec.join_column = query_rng.Uniform(1u << 16);
    in.queries.push_back(spec);
  }
  Rng fresh_rng(seed, kFreshStream);
  for (size_t i = 0; i < shape.fresh_tables; ++i) {
    in.fresh_ids.push_back(Numbered("fresh_", i));
    in.fresh_csv.push_back(
        DomainTableCsv(catalog, in.fresh_ids.back(), shape.rows, &fresh_rng));
  }
  return in;
}

ModelStack::ModelStack()
    : vocab(LakeSearchVocab()),
      config(LakeSearchConfig(vocab.size())),
      rng(1),
      model(config, &rng),
      tokenizer(&vocab),
      input_encoder(&config, &tokenizer),
      embedder(&model, &input_encoder) {}

size_t ModelStack::dim() const {
  return config.encoder.hidden + 2 * config.num_perm + config.encoder.hidden;
}

SketchOptions LakeSketchOptions() {
  SketchOptions options;
  options.num_perm = 16;
  return options;
}

std::vector<std::vector<float>> EmbedCsv(const ModelStack& stack,
                                         const std::string& csv) {
  Result<Table> parsed = ParseCsv(csv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "generated CSV failed to parse: %s\n",
                 parsed.status().ToString().c_str());
    std::abort();
  }
  Table table = std::move(parsed).value();
  table.InferTypes();
  return stack.embedder.ColumnEmbeddings(
      BuildTableSketch(table, LakeSketchOptions()));
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fingerprint(const Inputs& inputs) {
  uint64_t h = Fnv1a(nullptr, 0);
  auto add = [&h](const std::vector<std::string>& strings) {
    for (const std::string& s : strings) {
      h = Fnv1a(s.data(), s.size(), h);
      h = Fnv1a("\n", 1, h);
    }
  };
  add(inputs.lake_ids);
  add(inputs.lake_csv);
  add(inputs.query_csv);
  add(inputs.fresh_ids);
  add(inputs.fresh_csv);
  for (const QuerySpec& q : inputs.queries) {
    const uint64_t fields[3] = {q.table, q.union_query ? 1u : 0u,
                                q.join_column};
    h = Fnv1a(fields, sizeof(fields), h);
  }
  return h;
}

}  // namespace e2e
