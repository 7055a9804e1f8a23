#include "obs/timeseries_reader.hpp"

#include <utility>

namespace marcopolo::obs {

namespace {

constexpr int kSupportedSchema = 1;

void fail(ReadTimeseries* out, std::size_t line, std::string message) {
  out->errors.push_back({line, std::move(message)});
}

void decode_meta(const json::Value& value, std::size_t line,
                 ReadTimeseries* out) {
  const std::uint64_t schema = value.u64_or("timeseries_schema", 0);
  if (schema != kSupportedSchema) {
    fail(out, line,
         "unsupported timeseries_schema " + std::to_string(schema) +
             " (reader supports " + std::to_string(kSupportedSchema) + ")");
    return;
  }
  out->schema = static_cast<int>(schema);
  out->has_meta = true;
  out->tick_ms = value.u64_or("tick_ms", 0);
  out->start_ns = value.u64_or("start_ns", 0);
}

TimeseriesTick fill_tick(const json::Value& value) {
  TimeseriesTick tick;
  tick.tick = value.u64_or("tick", 0);
  tick.t_ns = value.u64_or("t_ns", 0);
  tick.tasks_done = value.u64_or("tasks_done", 0);
  tick.tasks_total = value.u64_or("tasks_total", 0);
  tick.tasks_per_s = value.number_or("tasks_per_s", 0.0);
  tick.workers_live = value.u64_or("workers_live", 0);
  tick.stalls = value.u64_or("stalls", 0);
  tick.verdicts = value.u64_or("verdicts", 0);
  tick.adversary_verdicts = value.u64_or("adversary_verdicts", 0);
  tick.instructions = value.u64_or("instructions", 0);
  tick.instructions_per_s = value.number_or("instructions_per_s", 0.0);
  if (const json::Value* rss = value.find("rss_kb"); rss != nullptr) {
    tick.has_mem = true;
    tick.rss_kb = rss->is_number() ? rss->u64() : 0;
    tick.peak_rss_kb = value.u64_or("peak_rss_kb", 0);
  }
  tick.hot_phase = value.string_or("hot_phase", "");
  if (const json::Value* eta = value.find("eta_s");
      eta != nullptr && eta->is_number()) {
    tick.has_eta = true;
    tick.eta_s = eta->number();
  }
  tick.final_tick = value.bool_or("final", false);
  return tick;
}

void decode_tick(const json::Value& value, std::size_t line,
                 ReadTimeseries* out) {
  TimeseriesTick tick = fill_tick(value);

  // Tick ids must strictly increase — the invariant check_trace_bundle
  // leans on to reject tampered or interleaved-writer files.
  if (!out->ticks.empty() && tick.tick <= out->ticks.back().tick) {
    fail(out, line,
         "non-monotone tick id " + std::to_string(tick.tick) +
             " (previous was " + std::to_string(out->ticks.back().tick) +
             ")");
    return;
  }
  out->ticks.push_back(std::move(tick));
}

}  // namespace

ReadTimeseries TimeseriesReader::read(std::istream& in) {
  ReadTimeseries out;
  json::read_ndjson(in, out, [&out](const std::string& type,
                                    const json::Value& value,
                                    std::size_t line) {
    if (type == "meta") {
      decode_meta(value, line, &out);
    } else if (type == "tick") {
      decode_tick(value, line, &out);
    } else {
      return false;  // a newer writer's record type
    }
    return true;
  });
  return out;
}

ReadTimeseries TimeseriesReader::read_file(const std::string& path) {
  return json::read_ndjson_file(path, &TimeseriesReader::read);
}

bool TimeseriesReader::parse_snapshot(const std::string& text,
                                      TimeseriesTick* out,
                                      std::string* error) {
  json::Value value;
  try {
    value = json::parse(text);
  } catch (const json::ParseError& err) {
    if (error != nullptr) *error = err.what();
    return false;
  }
  if (!value.is_object()) {
    if (error != nullptr) *error = "snapshot is not a JSON object";
    return false;
  }
  *out = fill_tick(value);
  return true;
}

}  // namespace marcopolo::obs
