// ManifestReader: parse run-manifest JSON (RunManifest: the examples'
// `--metrics-out` files and campaign_wallclock's benchmark output) back
// into MetricsSnapshot-shaped data.
//
// The reader reconstructs counters and histograms from the "metrics"
// section written by write_metrics_json() (buckets, count, sum, min, max
// — the pNN fields are derived and recomputed via
// HistogramSnapshot::quantile, never trusted from the file), plus the
// config echo, the phases and the optional profile section. Whatever is
// present is read, everything else defaults; unknown fields are skipped
// — same forward-compatibility policy as the journal reader.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace marcopolo::obs {

/// One wall-clock phase row, with hardware-counter / memory attribution
/// when the writing host had them (has_counters / has_mem distinguish
/// "zero" from "absent" — pre-counter documents parse with both false).
struct ReadPhase {
  std::string name;
  double seconds = 0.0;

  bool has_counters = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  bool has_mem = false;
  std::uint64_t peak_rss_kb = 0;
  std::int64_t rss_delta_kb = 0;

  /// Recomputed from the raw counts (like the pNN quantiles, the derived
  /// ipc/cache_miss_rate fields in the file are never trusted).
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  [[nodiscard]] double cache_miss_rate() const {
    return cache_references == 0 ? 0.0
                                 : static_cast<double>(cache_misses) /
                                       static_cast<double>(cache_references);
  }
};

/// One row of a manifest's hot-symbol table ("profile"."symbols").
struct ReadHotSymbol {
  std::string name;
  std::uint64_t self = 0;   ///< Samples with this symbol as leaf.
  std::uint64_t total = 0;  ///< Samples with this symbol anywhere.
};

/// The "profile" section of a manifest.
struct ReadProfile {
  std::uint32_t hz = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  std::uint64_t truncated = 0;
  /// Top-N by self samples, in document (descending-self) order.
  std::vector<ReadHotSymbol> symbols;

  /// Self share of the run, in [0,1]; 0 when the sample total is 0.
  [[nodiscard]] double self_share(std::uint64_t self) const {
    return samples == 0 ? 0.0
                        : static_cast<double>(self) /
                              static_cast<double>(samples);
  }
};

/// Everything read back from one manifest JSON document.
struct ReadManifest {
  int schema = 0;    ///< manifest_schema; 0 when the field is absent.
  std::string tool;  ///< Writing program ("quickstart", ...).

  /// Config echo, values re-serialized as display strings.
  std::vector<std::pair<std::string, std::string>> config;
  /// Wall-clock phases in document order.
  std::vector<ReadPhase> phases;

  /// Counter availability from the config echo's "perf_counters" key
  /// ("available" / "unavailable"); empty when the writer did not echo
  /// it. Lets diff explain *why* counter columns are missing.
  std::string perf_counters;

  MetricsSnapshot metrics;

  /// CPU-profile summary; has_profile distinguishes "absent" (profiler
  /// off/unavailable, or a pre-profiler document) from an empty table.
  bool has_profile = false;
  ReadProfile profile;

  std::vector<std::string> errors;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

class ManifestReader {
 public:
  [[nodiscard]] static ReadManifest read(std::istream& in);
  [[nodiscard]] static ReadManifest read_string(const std::string& text);
  [[nodiscard]] static ReadManifest read_file(const std::string& path);
};

}  // namespace marcopolo::obs
