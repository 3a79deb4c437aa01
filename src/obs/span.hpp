#pragma once
// RAII scoped spans: INTOOA_SPAN("gp.fit") times the enclosing scope and
// feeds (a) the log2 duration histogram of the same name in the metrics
// registry and (b) the Chrome trace buffer when tracing is on. Nesting is
// free — inner spans simply overlap outer ones on the same thread row,
// which Perfetto renders as a flame-style stack.
//
// Cost model: when obs::set_enabled(false), the constructor is one relaxed
// atomic load and a branch; nothing else runs. When enabled, entry/exit add
// two steady_clock reads plus one wait-free histogram update, and (only if
// tracing) one short mutex-guarded buffer append. Each INTOOA_SPAN site
// resolves its histogram in the registry once, on its first finish with
// telemetry on, and caches the pointer in a function-local static; later
// finishes take no lock and do no name lookup. A site that never finishes
// while enabled creates no histogram.

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace intooa::obs {

/// One INTOOA_SPAN call site: its name and, once resolved, the registry
/// histogram of that name. Registry metrics are never removed, so the
/// cached pointer stays valid for the process lifetime.
struct SpanSite {
  /// A string literal; it doubles as the histogram name.
  const char* name;
  std::atomic<Histogram*> histogram{nullptr};
};

class ScopedSpan {
 public:
  /// `site` must outlive the process's trace session (INTOOA_SPAN makes it
  /// a function-local static).
  explicit ScopedSpan(SpanSite& site) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    site_ = &site;
    start_ns_ = detail::monotonic_ns();
  }
  ~ScopedSpan() {
    if (site_ != nullptr) finish();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void finish() noexcept;

  SpanSite* site_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace intooa::obs

#define INTOOA_OBS_CONCAT_IMPL(a, b) a##b
#define INTOOA_OBS_CONCAT(a, b) INTOOA_OBS_CONCAT_IMPL(a, b)

/// Times the current scope under `name`, a string literal (see
/// obs/span.hpp).
#define INTOOA_SPAN(name)                                                  \
  static constinit ::intooa::obs::SpanSite INTOOA_OBS_CONCAT(              \
      intooa_span_site_, __LINE__){name};                                  \
  ::intooa::obs::ScopedSpan INTOOA_OBS_CONCAT(intooa_span_, __LINE__)(     \
      INTOOA_OBS_CONCAT(intooa_span_site_, __LINE__))
