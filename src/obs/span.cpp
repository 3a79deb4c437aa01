#include "obs/span.hpp"

#include "obs/trace.hpp"

namespace intooa::obs {

void ScopedSpan::finish() noexcept {
  const std::uint64_t end_ns = detail::monotonic_ns();
  const std::uint64_t duration_ns = end_ns - start_ns_;
  try {
    // record_always: the enabled gate already passed at construction, and
    // gating again here could lose the matching exit of a span that was
    // open while set_enabled flipped.
    Histogram* histogram = site_->histogram.load(std::memory_order_acquire);
    if (histogram == nullptr) {
      // Racing first finishes resolve the same registry entry.
      histogram = &registry().histogram(site_->name, Unit::Nanoseconds);
      site_->histogram.store(histogram, std::memory_order_release);
    }
    histogram->record_always(duration_ns);
    if (trace_enabled()) trace_record(site_->name, start_ns_, duration_ns);
  } catch (...) {
    // Instrumentation must never take down the measured code path
    // (registry() can throw bad_alloc on first-use allocation).
  }
}

}  // namespace intooa::obs
