// What one benchmark run reports: named metrics with units, the number of
// operations attempted and failed, and the problems behind any failure.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "marcopolo/result_store.hpp"

namespace mpbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, std::string_view unit) {
    metrics[name] = Metric{value, std::string(unit)};
  }
  /// Counts operations performed.
  void attempt(std::uint64_t ops) { attempted += ops; }
  /// Unless `ok`, counts `ops` operations as failed.
  void check(bool ok, std::uint64_t ops, const std::string& what) {
    if (!ok) failures(ops, what);
  }
  /// Counts `bad` failed operations.
  void failures(std::uint64_t bad, const std::string& what) {
    if (bad == 0) return;
    failed += bad;
    problems.push_back(what + " (" + std::to_string(bad) + " operations)");
  }
};

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The arithmetic mean: over timed passes it is total time / passes, so a
/// run's figure moves smoothly with the share of it the host ran slowly,
/// where a median jumps between the fast and the slow mode.
[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// FNV-1a, 64 bit: the digest pinned for the default seed.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

[[nodiscard]] inline std::string store_bytes(
    const marcopolo::core::ResultStore& store) {
  std::ostringstream out;
  store.save_binary(out);
  return std::move(out).str();
}

/// Every (victim, adversary != victim, plane) row holds an outcome for
/// every perspective; returns the number of incomplete rows.
[[nodiscard]] inline std::uint64_t incomplete_rows(
    const marcopolo::core::ResultStore& store) {
  std::uint64_t bad = 0;
  const auto n = static_cast<marcopolo::core::SiteIndex>(store.num_sites());
  for (std::size_t plane = 0; plane < store.num_attacks(); ++plane) {
    for (marcopolo::core::SiteIndex v = 0; v < n; ++v) {
      for (marcopolo::core::SiteIndex a = 0; a < n; ++a) {
        if (v != a && !store.pair_complete(plane, v, a)) ++bad;
      }
    }
  }
  return bad;
}

[[nodiscard]] inline std::uint64_t row_count(
    const marcopolo::core::ResultStore& store) {
  const std::uint64_t n = store.num_sites();
  return n * (n - 1) * store.num_attacks();
}

/// Peak resident set of this process (VmHWM) in MiB, 0 if unreadable.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace mpbench
