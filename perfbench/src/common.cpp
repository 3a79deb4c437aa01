#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::uint64_t SpanRecorder::reserve() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::record_with_id(std::uint64_t id, const std::string& name,
                                  std::uint64_t start_ns,
                                  std::uint64_t end_ns, std::uint64_t parent,
                                  std::uint64_t request) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

std::uint64_t SpanRecorder::record(const std::string& name,
                                   std::uint64_t start_ns,
                                   std::uint64_t end_ns, std::uint64_t parent,
                                   std::uint64_t request) {
  const std::uint64_t id = reserve();
  record_with_id(id, name, start_ns, end_ns, parent, request);
  return id;
}

void SpanRecorder::write() const {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path_);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "[" << json_string(s.name) << ","
        << s.start_ns << "," << s.end_ns << "," << s.id << "," << s.parent
        << "," << s.request << "]";
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path_);
}

std::vector<Key> read_keys(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read key file " + path);
  std::vector<Key> keys;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Key key;
    if (!(fields >> key.spec >> key.topology)) {
      throw std::runtime_error("bad key line: " + line);
    }
    fields >> key.expect;
    keys.push_back(std::move(key));
  }
  return keys;
}

std::vector<std::uint64_t> arrival_offsets(std::size_t count,
                                           std::uint64_t window_ns,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> due(count, 0);
  if (window_ns == 0 || count == 0) return due;
  // Uniform order statistics: partial sums of count + 1 exponential gaps,
  // scaled so the whole sum spans the window.
  intooa::util::Rng rng(seed);
  std::vector<double> sums(count + 1);
  double t = 0.0;
  for (std::size_t i = 0; i <= count; ++i) {
    t += -std::log(1.0 - rng.uniform());
    sums[i] = t;
  }
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = static_cast<std::uint64_t>(sums[i] / t * static_cast<double>(window_ns));
  }
  return due;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
