// In-memory span recorder for the traced benchmark run.
//
// The library's own trace::Span has no parent field, so the benchmark keeps
// its own: every span names the span that caused it and the iteration it
// belongs to. Spans are appended under a mutex (the traced paths record a
// few thousand per second) and written out once, when the run ends.

#ifndef HYDRA_PERFBENCH_SPAN_RECORDER_H_
#define HYDRA_PERFBENCH_SPAN_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Writes every span as one JSON array; returns false on an I/O error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"iteration\":%lld}%s\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.iteration),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records one span from construction to destruction. With a null recorder
// it does nothing, so traced and untraced code paths can share call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t parent,
             int64_t iteration)
      : rec_(rec) {
    if (rec_ == nullptr) return;
    span_.id = rec_->NewId();
    span_.parent = parent;
    span_.name = name;
    span_.iteration = iteration;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (rec_ == nullptr) return;
    span_.end_ns = NowNs();
    rec_->Add(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  Span span_;
};

}  // namespace perfbench

#endif  // HYDRA_PERFBENCH_SPAN_RECORDER_H_
