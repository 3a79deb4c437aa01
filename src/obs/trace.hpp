#pragma once
// Chrome trace-event output. Spans (obs/span.hpp) append complete ("ph":"X")
// events while collection is on; write_trace() emits a JSON file loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing, with one timeline
// row per thread (the util::thread_ordinal of the emitting thread).
//
// The buffer is bounded: beyond kDefaultEventCapacity events new spans are
// counted but dropped, and the drop count is reported in the trace metadata
// and a warning — long full-scale campaigns would otherwise grow the buffer
// without bound. Metrics histograms still see every span.

#include <cstddef>
#include <cstdint>
#include <string>

namespace intooa::obs {

/// Process row the event renders under. Local spans live on kLocalPid;
/// spans reconstructed from a server's response trailer (svc::ClientPool
/// with tracing on) land on kRemotePid so the merged view shows two process
/// lanes linked by flow arrows.
inline constexpr int kLocalPid = 1;
inline constexpr int kRemotePid = 2;

/// One buffered span occurrence. `name` must point at storage that outlives
/// the trace session; INTOOA_SPAN sites pass string literals.
struct TraceEvent {
  const char* name = nullptr;
  int pid = kLocalPid;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t flow_in = 0;   ///< nonzero: a flow with this id ends here
  std::uint64_t flow_out = 0;  ///< nonzero: a flow with this id starts here
  std::uint64_t trace_id = 0;  ///< cross-process trace id (args; 0 = none)
  std::uint64_t span_id = 0;   ///< this span's id (args; 0 = none)
};

inline constexpr std::size_t kDefaultEventCapacity = 1u << 20;

/// True while span collection is on (single relaxed load; spans check this
/// after the metrics-enabled gate).
bool trace_enabled();

/// Starts collecting, clearing any previously buffered events. `capacity`
/// bounds the buffer (0 keeps kDefaultEventCapacity).
void start_trace(std::size_t capacity = 0);

/// Stops collecting without writing (buffered events are kept).
void stop_trace();

/// Appends one event if collection is on and capacity remains.
void trace_record(const char* name, std::uint64_t start_ns,
                  std::uint64_t duration_ns);

/// Same, with every TraceEvent field caller-controlled (pid, flow links,
/// propagated trace/span ids). `event.tid` is used as given — pass
/// util::thread_ordinal() for local spans.
void trace_record_event(const TraceEvent& event);

/// Number of buffered events / events dropped after the buffer filled.
std::size_t trace_event_count();
std::size_t trace_dropped_count();

/// Stops collection and writes the buffered events as Chrome trace-event
/// JSON to `path`. Returns false (with a warning logged) when the file
/// cannot be written. The buffer is cleared on success.
bool write_trace(const std::string& path);

}  // namespace intooa::obs
