#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "stats.h"

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

// Callers collect after every recording thread has been joined, so the
// buffers are no longer written while they are read here.
std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

bool Tracer::WriteJsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Collect()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = tracer.ThreadBuffer();
  span_.name = name;
  span_.request = request;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
  buffer_->open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = NowNs();
  buffer_->open.pop_back();
  buffer_->spans.push_back(span_);
}

std::map<std::string, LayerTotals> LayerSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> layers;
  for (const Span& s : spans) {
    const std::string name = s.name;
    LayerTotals& t = layers[name.substr(0, name.find('.'))];
    auto it = children.find(s.id);
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += it == children.end()
                     ? s.end_ns - s.start_ns
                     : SelfTime({s.start_ns, s.end_ns}, it->second);
  }
  return layers;
}

}  // namespace e2e
