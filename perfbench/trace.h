// Bench-side trace spans.
//
// A span is recorded by the benchmark's own code around one call into a
// layer of the library: its name (the layer and call), start and end on
// the steady clock, the span that caused it, and the id of the request,
// trial or hit it belongs to.  Spans stay in per-thread memory while the
// run is timed and are written once, at exit, as Chrome trace-event JSON
// (the format `cbp-trace --format=chrome` emits).  Self time is a span's
// duration minus the part of it its child spans cover.
//
// Spans are off unless the run is traced; a disabled Span costs one
// relaxed load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

namespace internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

inline void set_enabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Id of the innermost open span on this thread (0 = none).
std::uint64_t current();

/// RAII span; a null `name` records nothing.  `parent` 0 means "the
/// innermost open span on this thread"; pass an explicit id for a span
/// caused on another thread (a trial run by a harness worker under its
/// round's span, say).
class Span {
 public:
  // Inline, so a span that records nothing costs a branch on the hot
  // paths it brackets.
  Span(const char* name, std::uint64_t request, std::uint64_t parent = 0) {
    if (name != nullptr && enabled()) begin(name, request, parent);
  }
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  void begin(const char* name, std::uint64_t request, std::uint64_t parent);
  void end();

  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Self-time summary of one span name.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-name totals over every span recorded so far.
std::vector<SpanSummary> summarize();

/// Spans dropped because the in-memory cap was reached.
std::uint64_t dropped();

/// Writes every recorded span as Chrome trace-event JSON; false on I/O
/// failure.
bool write_chrome(const std::string& path);

}  // namespace perfbench::trace
