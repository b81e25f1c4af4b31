// The benchmark's own statistics: the tail-percentile rule, self time
// under overlapping child spans, STATS deltas and open-loop due times.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace e2e {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Summarize, P99NeedsTenSamplesBeyondIt) {
  // n = 1000: the 99th percentile is rank 990, leaving exactly 10 beyond.
  Summary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(Summarize, FallsBackWhenTheSampleIsTooSmall) {
  // n = 999: rank 990 leaves 9 beyond, so p99 is not reported; p95 is
  // rank 950 with 49 beyond.
  Summary s = Summarize(OneTo(999));
  EXPECT_DOUBLE_EQ(s.tail_pct, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 950.0);
  EXPECT_EQ(s.beyond, 49u);
  // n = 15: only the median (rank 8, 7 beyond) is left, and it fails too.
  Summary tiny = Summarize(OneTo(15));
  EXPECT_DOUBLE_EQ(tiny.tail_pct, 0.0);
  EXPECT_EQ(tiny.beyond, 0u);
  EXPECT_EQ(tiny.n, 15u);
  // Order of the input does not matter.
  std::vector<double> shuffled = OneTo(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(Summarize(shuffled).tail, 990.0);
}

TEST(Summarize, TailCappedAtMaxPercentile) {
  // n = 1000 supports p99, but a cap of 95 reports p95 (50 beyond).
  Summary s = Summarize(OneTo(1000), 95);
  EXPECT_DOUBLE_EQ(s.tail_pct, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 950.0);
  EXPECT_EQ(s.beyond, 50u);
}

TEST(Summarize, EmptySample) {
  Summary s = Summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 0.0);
}

TEST(SummarizeWindow, MediansOverSlices) {
  // Four 1-second slices. Three hold 1000 completions of 1 ms each; one
  // (a burst of interference) holds 100 completions of 50 ms.
  std::vector<Completion> done;
  for (int64_t slice = 0; slice < 4; ++slice) {
    const bool bad = slice == 2;
    const int n = bad ? 100 : 1000;
    for (int i = 0; i < n; ++i) {
      done.push_back({slice * 1'000'000'000 + i * (1'000'000'000 / n), bad ? 50.0 : 1.0});
    }
  }
  // The medians over slices ignore the bad one. Its 100 samples leave 1
  // beyond a p99, so it reports no p99 of its own; pooled, the 3100
  // samples' p99 (rank 3069, 31 beyond) would land in its 50 ms samples.
  WindowSummary s = SummarizeWindow(done, 0, 4'000'000'000, 4);
  EXPECT_DOUBLE_EQ(s.per_second, 1000.0);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p99, 1.0);
  EXPECT_EQ(s.slices_with_p99, 3u);
  // One slice over the bad second alone: no slice supports a p99, so the
  // pooled sample decides (rank 99 of 100 leaves 1 beyond: p90 instead).
  WindowSummary bad = SummarizeWindow(done, 2'000'000'000, 3'000'000'000, 1);
  EXPECT_EQ(bad.slices_with_p99, 0u);
  EXPECT_DOUBLE_EQ(bad.p99, 50.0);
  EXPECT_DOUBLE_EQ(bad.per_second, 100.0);
  // Completions outside the window are ignored.
  done.push_back({-5, 1000.0});
  done.push_back({4'000'000'000, 1000.0});
  EXPECT_DOUBLE_EQ(SummarizeWindow(done, 0, 4'000'000'000, 4).p99, 1.0);
}

TEST(SelfTime, SubtractsTheUnionOfOverlappingChildren) {
  // Parent [0, 100]; children [10, 40] and [30, 60] overlap on [30, 40],
  // so together they cover 50, not 60.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 40}, {30, 60}}), 50);
  // A child nested in another changes nothing.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 60}, {20, 30}}), 50);
  // Children are clipped to the parent.
  EXPECT_EQ(SelfTime({0, 100}, {{-20, 10}, {90, 150}}), 80);
  // Disjoint children, given out of order.
  EXPECT_EQ(SelfTime({0, 100}, {{70, 80}, {0, 10}}), 80);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 100}, {5, 6}}), 0);
}

TEST(LayerSelfTimes, AttributesEachSpanToItsLayer) {
  std::vector<Span> spans = {
      {"bench.query", 0, 100, 1, 0, 7},
      {"table.parse", 0, 20, 2, 1, 7},
      {"core.embed", 20, 70, 3, 1, 7},
      {"server.union", 65, 100, 4, 1, 7},  // overlaps the embed span
  };
  auto layers = LayerSelfTimes(spans);
  EXPECT_EQ(layers["bench"].self_ns, 0);
  EXPECT_EQ(layers["bench"].total_ns, 100);
  EXPECT_EQ(layers["table"].self_ns, 20);
  EXPECT_EQ(layers["core"].self_ns, 50);
  EXPECT_EQ(layers["server"].self_ns, 35);
}

TEST(DiffStats, PerRequestFiguresFromCumulativeCounters) {
  tsfm::server::ServerStats before;
  before.requests = 100;
  before.batches = 40;
  before.total_latency_ms = 50.0;
  before.total_queue_wait_ms = 10.0;
  tsfm::server::ServerStats after = before;
  after.requests = 300;
  after.batches = 90;
  after.total_latency_ms = 250.0;
  after.total_queue_wait_ms = 30.0;
  StatsDelta d = DiffStats(before, after);
  EXPECT_EQ(d.requests, 200u);
  EXPECT_EQ(d.batches, 50u);
  EXPECT_DOUBLE_EQ(d.handler_us, 1000.0);  // 200 ms over 200 requests
  EXPECT_DOUBLE_EQ(d.queue_wait_us, 100.0);
  EXPECT_DOUBLE_EQ(d.avg_batch, 4.0);
  // No traffic between the snapshots: zeros, not a division by zero.
  StatsDelta idle = DiffStats(after, after);
  EXPECT_EQ(idle.requests, 0u);
  EXPECT_DOUBLE_EQ(idle.handler_us, 0.0);
  EXPECT_DOUBLE_EQ(idle.avg_batch, 0.0);
}

TEST(OpenLoopSchedule, ChargesLatencyFromTheDueTime) {
  // 100 operations per second: operation i is due 10 ms after i-1.
  OpenLoopSchedule s(1'000'000'000, 100.0);
  EXPECT_EQ(s.due_ns(0), 1'000'000'000);
  EXPECT_EQ(s.due_ns(3), 1'030'000'000);
  // A stall: operation 3 is sent 25 ms late and takes 2 ms, so the user
  // waited 27 ms, and the generator ran 25 ms behind.
  const int64_t sent = s.due_ns(3) + 25'000'000;
  EXPECT_DOUBLE_EQ(s.LagMs(3, sent), 25.0);
  EXPECT_DOUBLE_EQ(s.LatencyMs(3, sent + 2'000'000), 27.0);
  // Early or on-time sends have no lag.
  EXPECT_DOUBLE_EQ(s.LagMs(4, s.due_ns(4) - 1000), 0.0);
  EXPECT_DOUBLE_EQ(s.LatencyMs(4, s.due_ns(4) + 500'000), 0.5);
}

}  // namespace
}  // namespace e2e
