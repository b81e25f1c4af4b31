// Synthetic "open data" generation substrate.
//
// Replaces the paper's crawled CKAN/Socrata/Wikidata/ECB corpora (see
// "Scale substitutions" in docs/architecture.md). Tables are drawn from a catalog of domains,
// each with its own entity vocabulary, cryptic code columns, numeric
// measures and date columns — reproducing the enterprise-lake character the
// paper relies on (numeric-heavy, domain-specific entities, code words).
#ifndef TSFM_LAKEBENCH_DATAGEN_H_
#define TSFM_LAKEBENCH_DATAGEN_H_

#include <string>
#include <vector>

#include "table/table.h"
#include "util/random.h"

namespace tsfm::lakebench {

/// Kinds of synthesized columns.
enum class ColumnKind {
  kEntity,    ///< names drawn from the domain's entity pool
  kCode,      ///< cryptic code words ("PROD_BPM", "AACT_EAA01")
  kInteger,   ///< integers in a range
  kFloat,     ///< floats from a normal distribution
  kDate,      ///< ISO dates in a year range
  kCategory,  ///< small closed set of category strings
};

/// \brief Specification of one synthesized column.
struct ColumnSpec {
  std::string name;
  ColumnKind kind = ColumnKind::kInteger;
  // kEntity: index into the domain's entity pools.
  size_t entity_pool = 0;
  // kInteger / kFloat parameters.
  double lo = 0.0;
  double hi = 1000.0;
  double mean = 0.0;
  double stddev = 1.0;
  // kDate year range.
  int year_lo = 1990;
  int year_hi = 2024;
  // kCategory values.
  std::vector<std::string> categories;
  // Fraction of null cells.
  double null_fraction = 0.0;
};

/// \brief A data domain: entity pools plus a table schema template.
struct Domain {
  std::string name;
  std::string description;
  std::vector<std::vector<std::string>> entity_pools;
  std::vector<ColumnSpec> columns;
};

/// Deterministically synthesizes a pronounceable proper name
/// (2-4 syllables, capitalized).
std::string SyntheticName(Rng* rng);

/// Synthesizes a pool of `n` distinct proper names.
std::vector<std::string> MakeEntityPool(size_t n, Rng* rng);

/// Synthesizes a cryptic enterprise code like "AACT_EAA01".
std::string SyntheticCode(Rng* rng);

/// \brief The catalog of domains used by every generator.
///
/// Built deterministically from a seed; two catalogs with the same seed are
/// identical, so benchmarks are reproducible.
class DomainCatalog {
 public:
  explicit DomainCatalog(uint64_t seed = 42, size_t pool_size = 400);

  const std::vector<Domain>& domains() const { return domains_; }
  const Domain& domain(size_t i) const { return domains_[i]; }
  size_t size() const { return domains_.size(); }

 private:
  std::vector<Domain> domains_;
};

/// Generates `rows` rows for `spec` within `domain`.
std::vector<std::string> GenerateCells(const Domain& domain, const ColumnSpec& spec,
                                       size_t rows, Rng* rng);

/// Generates a full table from `domain` (all columns in the schema).
Table GenerateDomainTable(const Domain& domain, const std::string& id, size_t rows,
                          Rng* rng);

/// Generates a table using a subset of the domain's columns.
Table GenerateDomainTable(const Domain& domain, const std::string& id, size_t rows,
                          const std::vector<size_t>& column_subset, Rng* rng);

}  // namespace tsfm::lakebench

#endif  // TSFM_LAKEBENCH_DATAGEN_H_
