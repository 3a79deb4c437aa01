#include "obs/telemetry.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace intooa::obs {

namespace {

// The most recently constructed live session. Guarded by a mutex: the
// drain path (exit_if_draining on the main thread) and the destructor can
// race only in pathological teardown orders, but the lock makes the
// registration protocol unconditionally safe.
std::mutex g_active_mutex;
BenchTelemetry* g_active = nullptr;

// Whole-process resource use so far: peak resident set (MiB) and user +
// system CPU time (s).
void record_process_usage() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  // Linux reports ru_maxrss in KiB.
  registry().gauge("process.rss_peak_mb")
      .set(static_cast<double>(usage.ru_maxrss) / 1024.0);
  registry().gauge("process.cpu_seconds")
      .set(seconds(usage.ru_utime) + seconds(usage.ru_stime));
}

}  // namespace

TelemetryOptions TelemetryOptions::from_cli(const util::Cli& cli,
                                            util::LogLevel default_level) {
  TelemetryOptions options;
  options.trace_path = cli.get("trace", "");
  options.metrics_path = cli.get("metrics", "");

  const std::string level_text = cli.get("log-level", "");
  if (level_text.empty()) {
    util::set_log_level(default_level);
  } else if (const auto level = util::parse_log_level(level_text)) {
    util::set_log_level(*level);
  } else {
    throw std::invalid_argument(
        "--log-level expects debug|info|warn|error|off, got '" + level_text +
        "'");
  }
  return options;
}

BenchTelemetry::BenchTelemetry(TelemetryOptions options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  if (!options_.trace_path.empty()) start_trace();
  std::lock_guard<std::mutex> lock(g_active_mutex);
  g_active = this;
}

BenchTelemetry::~BenchTelemetry() {
  {
    std::lock_guard<std::mutex> lock(g_active_mutex);
    if (g_active == this) g_active = nullptr;
  }
  finalize();
}

double BenchTelemetry::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void BenchTelemetry::finalize() {
  if (finalized_) return;
  finalized_ = true;

  const double elapsed = elapsed_seconds();
  if (!options_.trace_path.empty()) write_trace(options_.trace_path);

  record_process_usage();
  const MetricsSnapshot snapshot = registry().snapshot();
  if (!options_.metrics_path.empty()) {
    write_metrics_report(options_.metrics_path, snapshot, elapsed);
  }
  // The human table rides the Info level: quiet runs (tests, --log-level
  // warn) skip it. stderr keeps stdout (bench tables piped to files)
  // byte-identical with telemetry off.
  if (util::log_level() <= util::LogLevel::Info &&
      (!snapshot.counters.empty() || !snapshot.histograms.empty())) {
    std::fputs((render_report(snapshot, elapsed) + "\n").c_str(), stderr);
  }
}

void finalize_active_telemetry() {
  BenchTelemetry* active = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_active_mutex);
    active = g_active;
    g_active = nullptr;  // at most one flush through this path
  }
  if (active != nullptr) active->finalize();
}

}  // namespace intooa::obs
