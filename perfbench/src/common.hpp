#pragma once
// Shared pieces of perfbench-tool: the monotonic clock every process of a
// benchmark run shares, the in-memory span recorder, the seeded arrival
// schedule, key files, and small JSON/stat helpers.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock Python's time.monotonic_ns
/// reads), so spans from several processes line up on one time axis.
std::uint64_t now_ns();

/// Sleeps until `deadline_ns` on the monotonic clock.
void sleep_until_ns(std::uint64_t deadline_ns);

/// One recorded span: a named interval with its parent span and the id of
/// the request (or campaign set) it belongs to.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
};

/// Spans kept in memory and written out once at the end. Disabled
/// recorders ignore every call, so untraced runs pay one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string path) : path_(std::move(path)) {}
  bool enabled() const { return !path_.empty(); }
  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t record(const std::string& name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);
  /// Reserves an id for a span that is recorded after its children.
  std::uint64_t reserve();
  void record_with_id(std::uint64_t id, const std::string& name,
                      std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t parent, std::uint64_t request);
  /// Writes the spans as a JSON array of
  /// [name, start_ns, end_ns, id, parent, request].
  void write() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// One request of a key stream: which spec and topology to evaluate, and
/// (when known) the FNV-1a digest its record must have.
struct Key {
  std::string spec;
  std::uint64_t topology = 0;
  std::string expect;  ///< 16 hex digits, or "" = not checked
};

/// Reads a key file: one "SPEC TOPOLOGY [DIGEST]" line per request.
std::vector<Key> read_keys(const std::string& path);

/// Due times (ns offsets from the schedule start) of `count` arrivals of a
/// Poisson process over [0, window_ns), conditioned on exactly `count`
/// arrivals (sorted uniform times), drawn from `seed`. A fixed count keeps
/// the work of a run independent of the seed; the spacing stays Poisson.
/// window_ns == 0 makes every request due at once.
std::vector<std::uint64_t> arrival_offsets(std::size_t count,
                                           std::uint64_t window_ns,
                                           std::uint64_t seed);

/// q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double quantile(std::vector<double> values, double q);

/// JSON string literal with escapes.
std::string json_string(const std::string& text);

}  // namespace perfbench
