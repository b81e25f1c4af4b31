#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

size_t PercentileRank(double p, size_t n) {
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

Summary Summarize(std::vector<double> samples, double max_pct) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[PercentileRank(50, s.n) - 1];
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > max_pct) continue;
    const size_t rank = PercentileRank(p, s.n);
    if (s.n - rank >= kMinBeyond) {
      s.tail = samples[rank - 1];
      s.tail_pct = p;
      s.beyond = s.n - rank;
      break;
    }
  }
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[PercentileRank(50, v.size()) - 1];
}

WindowSummary SummarizeWindow(const std::vector<Completion>& done, int64_t start_ns,
                              int64_t end_ns, size_t slices) {
  WindowSummary out;
  if (slices == 0 || end_ns <= start_ns) return out;
  const double width_ns = static_cast<double>(end_ns - start_ns) / static_cast<double>(slices);
  std::vector<std::vector<double>> by_slice(slices);
  std::vector<double> all;
  for (const Completion& c : done) {
    if (c.done_ns < start_ns || c.done_ns >= end_ns) continue;
    const size_t i = std::min(
        static_cast<size_t>(static_cast<double>(c.done_ns - start_ns) / width_ns), slices - 1);
    by_slice[i].push_back(c.latency_ms);
    all.push_back(c.latency_ms);
  }
  std::vector<double> rate, p50, p99;
  for (std::vector<double>& lat : by_slice) {
    rate.push_back(static_cast<double>(lat.size()) / (width_ns / 1e9));
    if (lat.empty()) continue;
    const Summary s = Summarize(std::move(lat));
    p50.push_back(s.p50);
    if (s.tail_pct == 99.0) p99.push_back(s.tail);
  }
  out.per_second = Median(rate);
  out.p50 = Median(p50);
  out.slices_with_p99 = p99.size();
  out.p99 = p99.empty() ? Summarize(std::move(all)).tail : Median(p99);
  return out;
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.first = std::max(c.first, parent.first);
    c.second = std::min(c.second, parent.second);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool in_run = false;
  for (const Interval& c : children) {
    if (c.second <= c.first) continue;
    if (in_run && c.first <= run_end) {
      run_end = std::max(run_end, c.second);
      continue;
    }
    if (in_run) covered += run_end - run_start;
    run_start = c.first;
    run_end = c.second;
    in_run = true;
  }
  if (in_run) covered += run_end - run_start;
  return (parent.second - parent.first) - covered;
}

StatsDelta DiffStats(const tsfm::server::ServerStats& before,
                     const tsfm::server::ServerStats& after) {
  StatsDelta d;
  d.requests = after.requests - before.requests;
  d.batches = after.batches - before.batches;
  if (d.requests > 0) {
    const auto n = static_cast<double>(d.requests);
    d.handler_us = (after.total_latency_ms - before.total_latency_ms) * 1e3 / n;
    d.queue_wait_us =
        (after.total_queue_wait_ms - before.total_queue_wait_ms) * 1e3 / n;
  }
  if (d.batches > 0) {
    d.avg_batch = static_cast<double>(d.requests) / static_cast<double>(d.batches);
  }
  return d;
}

}  // namespace e2e
