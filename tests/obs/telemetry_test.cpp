// The live telemetry plane: hub ticks, the stall watchdog's exact
// firing boundary, the localhost endpoint (and its degradation when the
// port is taken), the timeseries reader's tamper detection, the hub's
// `--progress` line, and the LineGuard that keeps that line and the
// Logger from shredding each other's stderr lines.
#include "obs/telemetry_hub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries_reader.hpp"

namespace marcopolo::obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mp_telemetry_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(TelemetryTest, TimeseriesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(7);

  TelemetryConfig cfg;
  cfg.timeseries_path = dir_;  // directory form -> <dir>/timeseries.ndjson
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);
  hub.start();
  hub.add_planned_tasks(10);
  TelemetryWorkerSlot* slot = hub.open_worker_slot();
  hub.note_task_done(slot, 3);
  hub.tick_now();
  hub.note_task_done(slot, 4);
  hub.close_worker_slot(slot);
  hub.stop();  // writes the final tick

  const ReadTimeseries read = TimeseriesReader::read_file(
      TelemetryHub::resolve_timeseries_path(dir_));
  ASSERT_TRUE(read.ok()) << read.errors.front().message;
  EXPECT_TRUE(read.has_meta);
  EXPECT_EQ(read.schema, 1);
  ASSERT_GE(read.ticks.size(), 2u);
  for (std::size_t i = 1; i < read.ticks.size(); ++i) {
    EXPECT_GT(read.ticks[i].tick, read.ticks[i - 1].tick);
  }
  EXPECT_EQ(read.ticks.front().tasks_done, 3u);
  EXPECT_EQ(read.ticks.front().tasks_total, 10u);
  EXPECT_EQ(read.ticks.front().workers_live, 1u);
  const TimeseriesTick* last = read.last_tick();
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->final_tick);
  EXPECT_EQ(last->tasks_done, 7u);
  EXPECT_EQ(last->workers_live, 0u);

  // Ticks carry live progress only: counter totals live in the run
  // manifest, so no tick line embeds a registry dump.
  std::ifstream raw(TelemetryHub::resolve_timeseries_path(dir_));
  std::string line;
  while (std::getline(raw, line)) {
    EXPECT_EQ(line.find("\"counters\""), std::string::npos) << line;
  }
}

TEST_F(TelemetryTest, StallFiresAtExactlyNTicksNotNMinusOne) {
  MetricsRegistry registry;
  TelemetryConfig cfg;
  cfg.stall_ticks = 3;
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);  // no start(): tick_now() drives time by hand
  TelemetryWorkerSlot* slot = hub.open_worker_slot();

  hub.note_task_done(slot);
  hub.tick_now();  // progress on this tick
  hub.tick_now();  // zero tick 1
  hub.tick_now();  // zero tick 2 == N-1: must NOT fire yet
  EXPECT_EQ(hub.stalls(), 0u);
  hub.tick_now();  // zero tick 3 == N: fires
  EXPECT_EQ(hub.stalls(), 1u);
  hub.tick_now();  // stays stalled: no refire while stuck
  EXPECT_EQ(hub.stalls(), 1u);

  // Progress resets the window; a second stall fires again.
  hub.note_task_done(slot);
  hub.tick_now();
  for (int i = 0; i < 3; ++i) hub.tick_now();
  EXPECT_EQ(hub.stalls(), 2u);
  EXPECT_EQ(registry.snapshot().counter("campaign.stalls"), 2u);
}

TEST_F(TelemetryTest, StallCounterInternedOnlyOnFirstStall) {
  // Pure-observer byte identity: a run that never stalls must leave the
  // registry without a campaign.stalls counter at all — not a zero row.
  MetricsRegistry registry;
  TelemetryConfig cfg;
  cfg.stall_ticks = 2;
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);
  TelemetryWorkerSlot* slot = hub.open_worker_slot();
  for (int i = 0; i < 5; ++i) {
    hub.note_task_done(slot);
    hub.tick_now();
  }
  EXPECT_EQ(hub.stalls(), 0u);
  for (const auto& [name, value] : registry.snapshot().counters) {
    EXPECT_NE(name, "campaign.stalls") << "interned without a stall";
  }
}

TEST_F(TelemetryTest, NoStallWhileNoWorkersAreLive) {
  TelemetryConfig cfg;
  cfg.stall_ticks = 1;
  TelemetryHub hub(cfg);
  for (int i = 0; i < 4; ++i) hub.tick_now();  // idle, zero workers
  EXPECT_EQ(hub.stalls(), 0u);
}

TEST_F(TelemetryTest, MetricsEndpointAgreesWithRegistrySnapshot) {
  MetricsRegistry registry;
  registry.counter("campaign.tasks_executed").add(42);
  registry.counter("propagation.runs").add(5);
  registry.histogram("campaign.phase.propagate_ns").observe(1024);

  TelemetryConfig cfg;
  cfg.serve_port = 0;  // kernel-assigned
  cfg.metrics = &registry;
  TelemetryHub hub(cfg);
  hub.start();
  if (!hub.serving()) {
    GTEST_SKIP() << "no loopback socket here: " << hub.serve_reason();
  }
  hub.tick_now();  // publish a payload

  int status = 0;
  std::string body;
  std::string error;
  ASSERT_TRUE(
      http_get_localhost(hub.port(), "/healthz", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(
      http_get_localhost(hub.port(), "/metrics", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);

  // Valid Prometheus text exposition: every non-empty line is a comment
  // or `name[{labels}] value`, and each sample name was declared by a
  // preceding # TYPE line.
  std::istringstream lines(body);
  std::string line;
  std::vector<std::string> typed;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      typed.push_back(rest.substr(0, rest.find(' ')));
      continue;
    }
    if (line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "bad sample line: " << line;
    std::string name = line.substr(0, space);
    if (const auto brace = name.find('{'); brace != std::string::npos) {
      name = name.substr(0, brace);
    }
    bool declared = false;
    for (const std::string& t : typed) {
      declared = declared || name.rfind(t, 0) == 0;
    }
    EXPECT_TRUE(declared) << "sample without # TYPE: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);

  // And the values agree with a direct registry scrape.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_NE(body.find("marcopolo_campaign_tasks_executed " +
                      std::to_string(snap.counter("campaign.tasks_executed"))),
            std::string::npos);
  EXPECT_NE(body.find("marcopolo_propagation_runs " +
                      std::to_string(snap.counter("propagation.runs"))),
            std::string::npos);
  EXPECT_NE(body.find("marcopolo_campaign_phase_propagate_ns_count 1"),
            std::string::npos);

  // /snapshot.json is one bare tick object.
  ASSERT_TRUE(http_get_localhost(hub.port(), "/snapshot.json", &status,
                                 &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.find("\"counters\""), std::string::npos) << body;
  TimeseriesTick tick;
  ASSERT_TRUE(TimeseriesReader::parse_snapshot(body, &tick, &error)) << error;

  ASSERT_TRUE(
      http_get_localhost(hub.port(), "/nope", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 404);
  hub.stop();
}

TEST_F(TelemetryTest, PortInUseDegradesToUnavailableWithReason) {
  TelemetryServer first;
  if (!first.start(0)) {
    GTEST_SKIP() << "no loopback socket here: " << first.unavailable_reason();
  }

  TelemetryConfig cfg;
  cfg.serve_port = first.port();  // guaranteed taken
  cfg.timeseries_path = dir_;
  cfg.metrics = nullptr;
  TelemetryHub hub(cfg);
  hub.start();
  EXPECT_FALSE(hub.serving());
  EXPECT_FALSE(hub.serve_reason().empty());
  EXPECT_NE(hub.serve_reason().find(std::to_string(first.port())),
            std::string::npos)
      << "reason should name the contested endpoint: " << hub.serve_reason();

  // Degraded serving must not degrade the rest of the hub: ticks still
  // land in the time-series file.
  hub.tick_now();
  hub.stop();
  const ReadTimeseries read = TimeseriesReader::read_file(
      TelemetryHub::resolve_timeseries_path(dir_));
  EXPECT_TRUE(read.ok());
  EXPECT_GE(read.ticks.size(), 1u);
  first.stop();
}

TEST(TimeseriesReaderTest, RejectsNonMonotoneTickIdsWithLineNumbers) {
  std::istringstream in(
      "{\"type\":\"meta\",\"timeseries_schema\":1,\"tick_ms\":100}\n"
      "{\"type\":\"tick\",\"tick\":0,\"tasks_done\":1}\n"
      "{\"type\":\"tick\",\"tick\":2,\"tasks_done\":2}\n"
      "{\"type\":\"tick\",\"tick\":1,\"tasks_done\":3}\n");
  const ReadTimeseries read = TimeseriesReader::read(in);
  EXPECT_FALSE(read.ok());
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, 4u);
  EXPECT_NE(read.errors[0].message.find("non-monotone tick id 1"),
            std::string::npos);
  EXPECT_EQ(read.ticks.size(), 2u);  // the offending tick is dropped
}

TEST(TimeseriesReaderTest, UnsupportedSchemaIsAnErrorUnknownTypeIsNot) {
  std::istringstream in(
      "{\"type\":\"meta\",\"timeseries_schema\":99}\n"
      "{\"type\":\"sparkline\",\"whatever\":1}\n");
  const ReadTimeseries read = TimeseriesReader::read(in);
  EXPECT_FALSE(read.ok());
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, 1u);
  EXPECT_NE(read.errors[0].message.find("unsupported timeseries_schema 99"),
            std::string::npos);
  EXPECT_EQ(read.skipped_records, 1u);  // forward compat, not an error
}

// --- LineGuard -------------------------------------------------------------

std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  return out;
}

TEST(LineGuardTest, PrintlnBlanksAndRedrawsTheLiveLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  guard.live_line("12/99 tasks", /*final=*/false);
  guard.println("[warn] stalled");
  guard.finish_live_line();
  const std::string bytes = drain(f);
  std::fclose(f);

  // live line, blank-out, the log line on its own row, live redraw, and
  // a finalizing newline — in that order.
  const std::string expected =
      "\r12/99 tasks"
      "\r           \r"
      "[warn] stalled\n"
      "\r12/99 tasks"
      "\r12/99 tasks\n";
  EXPECT_EQ(bytes, expected);
}

TEST(LineGuardTest, ConcurrentWritersNeverShredALogLine) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  LineGuard guard(f);
  constexpr int kLines = 200;
  std::thread progress([&guard] {
    for (int i = 0; i < kLines; ++i) {
      guard.live_line("progress " + std::to_string(i), false);
    }
  });
  std::thread logs([&guard] {
    for (int i = 0; i < kLines; ++i) {
      guard.println("log line " + std::to_string(i));
    }
  });
  progress.join();
  logs.join();
  guard.finish_live_line();
  const std::string bytes = drain(f);
  std::fclose(f);

  // Every println line must appear intact: preceded by line start
  // (\r or \n) and followed by its newline, never torn by a redraw.
  for (int i = 0; i < kLines; ++i) {
    const std::string needle = "log line " + std::to_string(i) + "\n";
    EXPECT_NE(bytes.find(needle), std::string::npos) << needle;
  }
}

// --- progress line ---------------------------------------------------------

std::size_t count_of(const std::string& text, char c) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), c));
}

TEST_F(TelemetryTest, ProgressLineFirstTickDrawsWhateverTheHostUptime) {
  // No clock of its own to compare against: the very first tick draws,
  // however long the host has been up.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    TelemetryConfig cfg;
    cfg.progress = f;
    TelemetryHub hub(cfg);  // never started: no final line either
    hub.add_planned_tasks(4);
    hub.note_task_done(hub.open_worker_slot());
    hub.tick_now();
  }
  const std::string bytes = drain(f);
  std::fclose(f);
  EXPECT_EQ(bytes.rfind("\r[campaign] 1/4 tasks (25.0%)", 0), 0u) << bytes;
  EXPECT_EQ(count_of(bytes, '\r'), 1u);
  EXPECT_EQ(count_of(bytes, '\n'), 0u) << "a live line is never terminated";
}

TEST_F(TelemetryTest, ProgressLineLiveTicksOverwriteAndStopPrintsOneSummary) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  FlightRecorder recorder;
  recorder.note_verdicts(10, 4);
  TelemetryConfig cfg;
  cfg.tick_ms = 3'600'000;  // the sampler never ticks on its own here
  cfg.recorder = &recorder;
  cfg.progress = f;
  TelemetryHub hub(cfg);
  hub.start();
  hub.add_planned_tasks(4);
  TelemetryWorkerSlot* slot = hub.open_worker_slot();
  hub.note_task_done(slot);
  hub.tick_now();
  hub.note_task_done(slot);
  hub.tick_now();
  hub.note_task_done(slot, 2);
  hub.close_worker_slot(slot);
  hub.stop();
  hub.stop();  // idempotent: no second summary
  const std::string bytes = drain(f);
  std::fclose(f);

  // Two live lines and the summary, each overwriting the previous in
  // place; only the summary carries a newline, as the very last byte.
  EXPECT_EQ(count_of(bytes, '\r'), 3u) << bytes;
  ASSERT_EQ(count_of(bytes, '\n'), 1u) << bytes;
  EXPECT_EQ(bytes.back(), '\n');
  const std::size_t last_cr = bytes.find_last_of('\r');
  const std::size_t prev_cr = bytes.find_last_of('\r', last_cr - 1);
  const std::string live = bytes.substr(prev_cr + 1, last_cr - prev_cr - 1);
  const std::string summary = bytes.substr(last_cr + 1);
  EXPECT_NE(live.find("2/4 tasks (50.0%)"), std::string::npos) << live;
  EXPECT_NE(live.find("ETA"), std::string::npos) << live;
  EXPECT_NE(summary.find("4/4 tasks (100.0%)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("done in"), std::string::npos) << summary;
  EXPECT_NE(summary.find("hijacked 40.0%"), std::string::npos) << summary;
  // Padded to the previous line's width, so no tail of it survives.
  EXPECT_GE(summary.size() - 1, live.size());
}

TEST_F(TelemetryTest, ProgressLineIdleTickClosesTheLiveLineOnce) {
  // Between campaigns nothing is outstanding: the first idle tick
  // newline-terminates the live line with the summary (so reports printed
  // next do not splice into it); later idle ticks, and a stop() with no
  // new work since, draw nothing.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  {
    TelemetryConfig cfg;
    cfg.tick_ms = 3'600'000;
    cfg.progress = f;
    TelemetryHub hub(cfg);
    hub.start();
    hub.add_planned_tasks(2);
    TelemetryWorkerSlot* slot = hub.open_worker_slot();
    hub.tick_now();  // work outstanding: a live 0/2 line
    hub.note_task_done(slot, 2);
    hub.tick_now();  // all retired: closes the line
    hub.tick_now();  // idle, nothing showing: silent
    hub.stop();      // same summary already on screen: silent
  }
  const std::string bytes = drain(f);
  std::fclose(f);
  EXPECT_EQ(count_of(bytes, '\r'), 2u) << bytes;
  EXPECT_EQ(count_of(bytes, '\n'), 1u) << bytes;
  EXPECT_EQ(bytes.back(), '\n');
  EXPECT_NE(bytes.find("2/2 tasks (100.0%)"), std::string::npos) << bytes;
}

}  // namespace
}  // namespace marcopolo::obs
