#include "search/table_ranker.h"

#include <algorithm>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "search/knn_index.h"
#include "util/logging.h"

namespace tsfm::search {

namespace {

// The HNSW backend stores float vectors regardless of the storage knob;
// normalizing here keeps options() honest about what was actually built
// (and keeps persisted headers from claiming sq8 for a float graph).
IndexOptions NormalizeStorage(IndexOptions options) {
  if (options.backend == IndexBackend::kHnsw) {
    options.storage = Storage::kFloat32;
  }
  return options;
}

}  // namespace

ColumnEmbeddingIndex::ColumnEmbeddingIndex(size_t dim, const IndexOptions& options)
    : options_(NormalizeStorage(options)), index_(MakeVectorIndex(dim, options_)) {}

void ColumnEmbeddingIndex::SeedSq8Codec(Sq8Codec codec) {
  auto* flat = dynamic_cast<KnnIndex*>(index_.get());
  TSFM_CHECK(flat != nullptr);
  flat->SeedSq8Codec(std::move(codec));
}

const Sq8Codec* ColumnEmbeddingIndex::sq8_codec() const {
  const auto* flat = dynamic_cast<const KnnIndex*>(index_.get());
  return flat != nullptr ? flat->sq8_codec() : nullptr;
}

void ColumnEmbeddingIndex::AddTable(size_t table_id,
                                    const std::vector<std::vector<float>>& columns) {
  for (size_t c = 0; c < columns.size(); ++c) {
    index_->Add(column_of_.size(), columns[c]);
    column_of_.emplace_back(table_id, c);
  }
}

std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>
ColumnEmbeddingIndex::SearchColumnsBatch(const std::vector<std::vector<float>>& queries,
                                         size_t k, ThreadPool* pool) const {
  std::vector<std::vector<ColumnHit>> results(queries.size());
  auto raw = index_->SearchBatch(queries, k, pool);
  for (size_t q = 0; q < raw.size(); ++q) {
    results[q].reserve(raw[q].size());
    for (const auto& [payload, dist] : raw[q]) {
      const auto& [table, col] = column_of_[payload];
      results[q].push_back({table, col, dist});
    }
  }
  return results;
}

std::vector<ColumnEmbeddingIndex::ColumnHit> TableRanker::MergeColumnHits(
    const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>& lists,
    size_t k) {
  // Min-heap over the head of each list, keyed the same way the flat scan
  // breaks ties: (distance, table, column). Popping k times yields the
  // global top-k exactly as if the lists had been concatenated and sorted.
  using Head = std::tuple<float, size_t, size_t, size_t>;  // key..., list index
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  std::vector<size_t> pos(lists.size(), 0);
  for (size_t l = 0; l < lists.size(); ++l) {
    if (!lists[l].empty()) {
      const auto& h = lists[l][0];
      heap.emplace(h.distance, h.table_id, h.column_index, l);
    }
  }
  std::vector<ColumnEmbeddingIndex::ColumnHit> merged;
  merged.reserve(k);
  while (merged.size() < k && !heap.empty()) {
    const size_t l = std::get<3>(heap.top());
    heap.pop();
    merged.push_back(lists[l][pos[l]]);
    if (++pos[l] < lists[l].size()) {
      const auto& h = lists[l][pos[l]];
      heap.emplace(h.distance, h.table_id, h.column_index, l);
    }
  }
  return merged;
}

std::vector<size_t> TableRanker::RankFromColumnHits(
    const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>&
        per_column_hits,
    size_t exclude) {
  // Per candidate table: number of distinct query columns matched and the
  // sum of their min distances (RANK1 / RANK2).
  struct Candidate {
    size_t matched = 0;
    double distance_sum = 0.0;
  };
  std::unordered_map<size_t, Candidate> candidates;

  for (const auto& hits : per_column_hits) {
    // COLUMNNEARTABLES: min distance per table among this column's hits.
    std::unordered_map<size_t, float> near_tables;
    for (const auto& hit : hits) {
      if (hit.table_id == exclude) continue;
      auto it = near_tables.find(hit.table_id);
      if (it == near_tables.end() || hit.distance < it->second) {
        near_tables[hit.table_id] = hit.distance;
      }
    }
    for (const auto& [table, dist] : near_tables) {
      Candidate& c = candidates[table];
      c.matched += 1;
      c.distance_sum += dist;
    }
  }

  std::vector<std::pair<size_t, Candidate>> order(candidates.begin(),
                                                  candidates.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second.matched != b.second.matched) {
      return a.second.matched > b.second.matched;  // RANK1
    }
    if (a.second.distance_sum != b.second.distance_sum) {
      return a.second.distance_sum < b.second.distance_sum;  // RANK2
    }
    return a.first < b.first;
  });

  std::vector<size_t> ranked;
  ranked.reserve(order.size());
  for (const auto& [table, c] : order) ranked.push_back(table);
  return ranked;
}

std::vector<size_t> TableRanker::RankFromSingleColumnHits(
    const std::vector<ColumnEmbeddingIndex::ColumnHit>& hits, size_t exclude) {
  std::unordered_map<size_t, float> near_tables;
  for (const auto& hit : hits) {
    if (hit.table_id == exclude) continue;
    auto it = near_tables.find(hit.table_id);
    if (it == near_tables.end() || hit.distance < it->second) {
      near_tables[hit.table_id] = hit.distance;
    }
  }
  std::vector<std::pair<size_t, float>> order(near_tables.begin(), near_tables.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  std::vector<size_t> ranked;
  ranked.reserve(order.size());
  for (const auto& [table, dist] : order) ranked.push_back(table);
  return ranked;
}

}  // namespace tsfm::search
