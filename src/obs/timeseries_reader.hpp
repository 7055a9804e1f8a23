// TimeseriesReader: parse a timeseries.ndjson written by TelemetryHub
// back into tick records.
//
// Same schema policy as the journal reader (timeseries_schema 1,
// forward-compatible reads): unknown "type" records are counted and
// skipped; unknown fields inside a tick are ignored; missing fields
// default to zero-values. Structural problems — a non-object line, a
// missing "type", an unsupported schema, a tick id that fails to
// strictly increase (the tamper/corruption signature) — are errors
// carrying their 1-based line number.
//
// Consumers: `mpinspect tail` / `mpinspect watch` (render ticks),
// `check_trace_bundle` (schema, meta line, tick monotonicity). Counter
// totals are not here: they live in the run manifest only. Files from
// writers that embedded a "counters" object per tick still read; the
// field is ignored like any other unknown one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace marcopolo::obs {

/// One problem found while reading, anchored to its line.
using TimeseriesIssue = json::LineIssue;

/// One decoded tick record.
struct TimeseriesTick {
  std::uint64_t tick = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
  double tasks_per_s = 0.0;
  std::uint64_t workers_live = 0;
  std::uint64_t stalls = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t adversary_verdicts = 0;
  std::uint64_t instructions = 0;
  double instructions_per_s = 0.0;
  bool has_mem = false;  ///< rss fields present (writer had /proc).
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  std::string hot_phase;  ///< Empty when the writer had no registry.
  bool has_eta = false;
  double eta_s = 0.0;
  bool final_tick = false;
};

/// Everything read back from one timeseries.ndjson (errors, skipped
/// records and the line count come from json::NdjsonRead).
struct ReadTimeseries : json::NdjsonRead {
  /// From the meta header line (0 when no meta line was seen).
  int schema = 0;
  bool has_meta = false;
  std::uint64_t tick_ms = 0;
  std::uint64_t start_ns = 0;

  std::vector<TimeseriesTick> ticks;

  /// The last tick, or nullptr when the file held none.
  [[nodiscard]] const TimeseriesTick* last_tick() const {
    return ticks.empty() ? nullptr : &ticks.back();
  }
};

/// Parses timeseries.ndjson streams. Stateless; the static methods are
/// the whole interface.
class TimeseriesReader {
 public:
  [[nodiscard]] static ReadTimeseries read(std::istream& in);
  /// read() on the file's contents; an unopenable path is reported as an
  /// error on line 0.
  [[nodiscard]] static ReadTimeseries read_file(const std::string& path);
  /// Decode one bare tick object — the shape /snapshot.json serves (a
  /// tick record without the "type" tag). Returns false with *error set
  /// on malformed input; "{}" (no tick published yet) decodes to a
  /// default tick.
  [[nodiscard]] static bool parse_snapshot(const std::string& text,
                                           TimeseriesTick* out,
                                           std::string* error);
};

}  // namespace marcopolo::obs
