// Statistics the benchmark reports: latency summaries under the "at least
// ten samples beyond the tail" rule, self time of a span among possibly
// overlapping children, deltas of the server's cumulative STATS counters,
// and the due-time accounting of an open-loop schedule.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "server/protocol.h"

namespace e2e {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kMinBeyond = 10;

/// \brief Median and tail of a latency sample.
///
/// The tail is the highest percentile of the ladder 99, 95, 90, 75, 50, no
/// higher than `max_pct`, that has at least kMinBeyond samples beyond it
/// (`tail_pct` says which, 0 when none does). `beyond` is that count; `n`
/// the sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< 0 when no ladder percentile qualifies
  size_t beyond = 0;
};

/// 1-based rank of the p-th percentile in a sorted sample of n (nearest
/// rank: ceil(p/100 * n), at least 1).
size_t PercentileRank(double p, size_t n);

Summary Summarize(std::vector<double> samples, double max_pct = 99);

/// One completed operation: when it finished and how long it took.
struct Completion {
  int64_t done_ns = 0;
  double latency_ms = 0;
};

/// \brief Throughput and latency of a window cut into equal time slices.
///
/// [start_ns, end_ns) is cut into `slices` equal slices. Each slice gets
/// its completion rate, median and p99 (the p99 only where the slice has
/// kMinBeyond samples beyond it); reported are the medians over the
/// slices, so interference confined to a few slices moves them little.
/// Where no slice supports a p99, `p99` is the p99 of all samples.
struct WindowSummary {
  double per_second = 0;
  double p50 = 0;
  double p99 = 0;
  size_t slices_with_p99 = 0;
};

WindowSummary SummarizeWindow(const std::vector<Completion>& done, int64_t start_ns,
                              int64_t end_ns, size_t slices);

/// Median of a sample (nearest rank, as Summarize's p50: the lower middle
/// value for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// A closed interval [start, end] on one clock, in nanoseconds.
using Interval = std::pair<int64_t, int64_t>;

/// \brief `parent` minus the part of it covered by any child.
///
/// Children may overlap each other (concurrent sub-calls) and may stick
/// out of the parent; only their union clipped to the parent counts.
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// Per-request figures from two snapshots of the server's STATS counters.
struct StatsDelta {
  uint64_t requests = 0;
  uint64_t batches = 0;
  double handler_us = 0;     ///< frame-read -> response, per request
  double queue_wait_us = 0;  ///< batcher enqueue -> dispatch, per request
  double avg_batch = 0;      ///< requests per coalesced batch
};

StatsDelta DiffStats(const tsfm::server::ServerStats& before,
                     const tsfm::server::ServerStats& after);

/// \brief A fixed-rate open-loop schedule: operation i is due at
/// start + i / rate, whether or not earlier operations have finished.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  int64_t due_ns(size_t i) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(i) * period_ns_);
  }

  /// Latency of operation i as a user sees it: from when it was due, so a
  /// stall also charges the operations that queued behind it.
  double LatencyMs(size_t i, int64_t done_ns) const {
    return static_cast<double>(done_ns - due_ns(i)) / 1e6;
  }

  /// How late the generator sent operation i (0 when on time or early).
  double LagMs(size_t i, int64_t sent_ns) const {
    const int64_t late = sent_ns - due_ns(i);
    return late > 0 ? static_cast<double>(late) / 1e6 : 0.0;
  }

 private:
  int64_t start_ns_;
  double period_ns_;
};

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
