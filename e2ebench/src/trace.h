// In-memory spans recorded by the benchmark around its calls into each
// layer of the program. Off by default; the traced run turns them on for
// its traced phase only, and end-to-end numbers never come from it.
//
// A span has a name ("layer.call"), start and end on the steady clock, a
// parent (the span open on the same thread when it began, 0 for a root)
// and a request id (the query or mutation it belongs to, 0 for none).
// Spans stay in per-thread buffers until Collect() merges them at exit.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

int64_t NowNs();

struct Span {
  const char* name = "";  ///< a string literal: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All spans recorded so far, from every thread.
  std::vector<Span> Collect();

  /// Writes one JSON object per span to `path`.
  bool WriteJsonl(const std::string& path);

 private:
  friend class ScopedSpan;
  struct Buffer {
    std::vector<Span> spans;
    std::vector<uint64_t> open;  // ids of this thread's open spans
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// \brief Records one span from construction to destruction when tracing
/// is on; costs one relaxed load when it is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  Span span_;
};

/// Per-layer totals of a span set: the layer is the name up to the first
/// '.', self time is each span minus its children's union.
struct LayerTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

std::map<std::string, LayerTotals> LayerSelfTimes(const std::vector<Span>& spans);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
