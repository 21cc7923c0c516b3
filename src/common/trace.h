// Request tracing — bounded per-thread span buffers with Chrome export
// (docs/observability.md).
//
// A TraceScope brackets one timed region ("serve/next_batch", "lp/solve").
// While tracing is disabled — the default — constructing one costs a
// single relaxed atomic load and destructing it a branch; no clock is
// read, nothing allocates. While enabled, scope exit appends one Span to
// the calling thread's fixed-size ring buffer (oldest spans overwritten),
// so a traced process has strictly bounded trace memory no matter how
// long it runs.
//
// Enabling:
//   - HYDRA_TRACE=1 (or "on")     enable at startup.
//   - HYDRA_TRACE=<path>          enable, and write the Chrome trace JSON
//                                 to <path> at process exit (atexit) —
//                                 how `fig_serve` emits its CI artifact.
//   - trace::SetEnabled(true)     programmatic, any time.
//
// Export: trace::ChromeTraceJson() renders every thread's surviving spans
// as Chrome trace-event JSON ("X" complete events, microsecond
// timestamps); load the file at chrome://tracing or https://ui.perfetto.dev.
// Span names must be string literals (the Span stores the pointer).
//
// Thread buffers outlive their threads (the registry keeps them alive), so
// a post-run export still sees spans from joined worker threads.

#ifndef HYDRA_COMMON_TRACE_H_
#define HYDRA_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hydra {
namespace trace {

// One completed scope. tid is a small process-local thread index (assigned
// at first record on the thread), not the OS tid.
struct Span {
  const char* name = nullptr;
  uint32_t tid = 0;
  uint64_t start_us = 0;  // since process trace epoch (first enable check)
  uint64_t dur_us = 0;
};

// Spans each thread retains; older spans are overwritten ring-style.
inline constexpr size_t kSpansPerThread = 4096;

// The hot-path gate (one relaxed load). The first call applies HYDRA_TRACE.
bool Enabled();
void SetEnabled(bool enabled);

// Appends a completed span to the calling thread's ring. Called by
// ~TraceScope; exposed for instrumentation that measures its own interval.
void RecordSpan(const char* name, uint64_t start_us, uint64_t end_us);

// Microseconds since the process trace epoch.
uint64_t NowMicros();

// Every surviving span across all thread buffers, ordered by start time.
std::vector<Span> Snapshot();
// Drops all recorded spans (tests; long-lived processes between exports).
void Clear();

// Chrome trace-event JSON of Snapshot().
std::string ChromeTraceJson();
Status WriteChromeTrace(const std::string& path);

class TraceScope {
 public:
  // `name` must be a string literal (or otherwise outlive the export).
  explicit TraceScope(const char* name) {
    if (Enabled()) {
      name_ = name;
      start_us_ = NowMicros();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) RecordSpan(name_, start_us_, NowMicros());
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
};

}  // namespace trace
}  // namespace hydra

#endif  // HYDRA_COMMON_TRACE_H_
