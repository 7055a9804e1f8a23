// ManifestReader: RunManifest JSON (the examples' --metrics-out files and
// campaign_wallclock's output alike) decodes back into
// MetricsSnapshot-shaped data, with the same forward-compatibility policy
// as the journal reader.
#include "obs/manifest_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/manifest.hpp"

namespace marcopolo::obs {
namespace {

TEST(ManifestReader, RoundTripsARunManifest) {
  MetricsRegistry reg;
  reg.counter("campaign.tasks_executed").add(2048);
  reg.counter("campaign.propagations").add(1984);
  Histogram h = reg.histogram("campaign.task_ns");
  h.observe(100);
  h.observe(1'000);
  h.observe(100'000);
  const MetricsSnapshot written = reg.snapshot();

  RunManifest manifest("quickstart");
  manifest.set("ases", 943);
  manifest.set("tie_break", "hashed");
  manifest.set("fraction", 0.25);
  manifest.set("rpki", true);
  manifest.add_phase("build_testbed", 0.125);
  manifest.add_phase("fast_campaign", 1.5);
  std::ostringstream out;
  manifest.write_json(out, written);

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.schema, 1);
  EXPECT_EQ(read.tool, "quickstart");

  // Keys come back sorted (json::Object is an ordered map); the
  // writer's insertion order is not recoverable and not needed.
  ASSERT_EQ(read.config.size(), 4u);
  EXPECT_EQ(read.config[0], (std::pair<std::string, std::string>{
                                "ases", "943"}));
  EXPECT_EQ(read.config[1].second, "0.25");
  EXPECT_EQ(read.config[2].second, "true");
  EXPECT_EQ(read.config[3].second, "hashed");

  ASSERT_EQ(read.phases.size(), 2u);
  EXPECT_EQ(read.phases[0].name, "build_testbed");
  EXPECT_EQ(read.phases[0].seconds, 0.125);
  EXPECT_EQ(read.phases[1].seconds, 1.5);
  // Plain add_phase carries no counters: the rows must read back exactly
  // as a pre-counter writer's would (forward compat both ways).
  EXPECT_FALSE(read.phases[0].has_counters);
  EXPECT_FALSE(read.phases[0].has_mem);

  // Counters come back sorted (the snapshot() contract).
  EXPECT_EQ(read.metrics.counter("campaign.tasks_executed"), 2048u);
  EXPECT_EQ(read.metrics.counter("campaign.propagations"), 1984u);
  ASSERT_EQ(read.metrics.counters.size(), 2u);
  EXPECT_LT(read.metrics.counters[0].first, read.metrics.counters[1].first);

  const HistogramSnapshot* rh = read.metrics.histogram("campaign.task_ns");
  const HistogramSnapshot* wh = written.histogram("campaign.task_ns");
  ASSERT_NE(rh, nullptr);
  ASSERT_NE(wh, nullptr);
  EXPECT_EQ(rh->count, wh->count);
  EXPECT_EQ(rh->sum, wh->sum);
  EXPECT_EQ(rh->min, wh->min);
  EXPECT_EQ(rh->max, wh->max);
  ASSERT_EQ(rh->buckets, wh->buckets);
  // Quantiles recompute identically from identical buckets.
  EXPECT_DOUBLE_EQ(rh->quantile(0.95), wh->quantile(0.95));
  EXPECT_FALSE(read.has_profile);
}

TEST(ManifestReader, RoundTripsPhaseCounters) {
  RunManifest manifest("bench");
  PhaseStats stats;
  stats.counters.instructions = 4'000'000'000ULL;
  stats.counters.cycles = 2'000'000'000ULL;
  stats.counters.cache_references = 50'000'000ULL;
  stats.counters.cache_misses = 5'000'000ULL;
  stats.counters.branch_misses = 1'000'000ULL;
  stats.counters.valid = true;
  stats.peak_rss_kb = 262'144;
  stats.rss_delta_kb = -512;
  stats.mem_valid = true;
  manifest.add_phase("resilience_kernel_ms", 0.25, stats);
  manifest.add_phase("plain_phase", 0.5);  // counter-less row alongside

  std::ostringstream out;
  manifest.write_json(out, MetricsSnapshot{});
  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << read.errors.front();
  ASSERT_EQ(read.phases.size(), 2u);

  const ReadPhase& phase = read.phases[0];
  ASSERT_TRUE(phase.has_counters);
  EXPECT_EQ(phase.instructions, 4'000'000'000ULL);
  EXPECT_EQ(phase.cycles, 2'000'000'000ULL);
  EXPECT_EQ(phase.cache_references, 50'000'000ULL);
  EXPECT_EQ(phase.cache_misses, 5'000'000ULL);
  EXPECT_EQ(phase.branch_misses, 1'000'000ULL);
  // Derived quantities are recomputed from the raw counts, never trusted
  // from the document (same policy as histogram quantiles).
  EXPECT_DOUBLE_EQ(phase.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(phase.cache_miss_rate(), 0.1);
  ASSERT_TRUE(phase.has_mem);
  EXPECT_EQ(phase.peak_rss_kb, 262'144u);
  EXPECT_EQ(phase.rss_delta_kb, -512);

  EXPECT_FALSE(read.phases[1].has_counters);
  EXPECT_FALSE(read.phases[1].has_mem);
}

TEST(ManifestReader, InvalidPhaseStatsLeaveTheDocumentByteIdentical) {
  // The off/unavailable contract: a PhaseStats that never got counters
  // (counters-off run, or perf_event_open denied) must serialize exactly
  // like the counter-less overload — byte for byte, not just field for
  // field.
  RunManifest with_stats("bench");
  with_stats.add_phase("p", 0.25, PhaseStats{});
  RunManifest plain("bench");
  plain.add_phase("p", 0.25);
  std::ostringstream a;
  std::ostringstream b;
  with_stats.write_json(a, MetricsSnapshot{});
  plain.write_json(b, MetricsSnapshot{});
  EXPECT_EQ(a.str(), b.str());
}

TEST(ManifestReader, PreCounterDocumentsParseCleanly) {
  // A document written before counter support: phases carry only
  // name/seconds and there is no "perf_counters" echo. Everything reads
  // back with availability flags off and an empty echo string.
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "old",
    "config": {}, "phases": [{"name": "fast_campaign", "seconds": 1.5}],
    "metrics": {"counters": {}, "histograms": {}}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  ASSERT_EQ(read.phases.size(), 1u);
  EXPECT_FALSE(read.phases[0].has_counters);
  EXPECT_FALSE(read.phases[0].has_mem);
  EXPECT_TRUE(read.perf_counters.empty());
}

TEST(ManifestReader, ReadsPerfCounterAvailabilityEcho) {
  // The availability echo lives in the config like every other setting.
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "campaign_wallclock",
    "config": {"perf_counters": "unavailable",
               "perf_counters_reason": "perf_event_open: No such file"},
    "phases": [{"name": "resilience_kernel_ms", "seconds": 0.1,
                "instructions": 1000, "cycles": 500}]
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.perf_counters, "unavailable");
  ASSERT_EQ(read.phases.size(), 1u);
  EXPECT_TRUE(read.phases[0].has_counters);
  EXPECT_EQ(read.phases[0].instructions, 1000u);
}

TEST(ManifestReader, ReadsCampaignWallclockDocuments) {
  // The bench writes a plain RunManifest: each thread-count run is a
  // phase, section details are flat config keys, and the metrics section
  // is the serial run's snapshot.
  MetricsRegistry reg;
  reg.counter("campaign.tasks_executed").add(2048);
  RunManifest manifest("campaign_wallclock");
  manifest.set("version", "abc1234");
  manifest.set("perf_counters", "available");
  manifest.set("thread_counts", "1,2");
  manifest.set("scaled.ases", 50000);
  manifest.set("recording.overhead", 0.04);
  manifest.add_phase("paper_campaigns_threads_1_ms", 0.5);
  manifest.add_phase("paper_campaigns_threads_2_ms", 0.3);
  std::ostringstream out;
  manifest.write_json(out, reg.snapshot());

  const ReadManifest read = ManifestReader::read_string(out.str());
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.schema, 1);
  EXPECT_EQ(read.tool, "campaign_wallclock");
  EXPECT_EQ(read.perf_counters, "available");
  const auto config = [&read](const std::string& key) -> std::string {
    for (const auto& [k, v] : read.config) {
      if (k == key) return v;
    }
    return "<absent>";
  };
  EXPECT_EQ(config("version"), "abc1234");
  EXPECT_EQ(config("thread_counts"), "1,2");
  EXPECT_EQ(config("scaled.ases"), "50000");
  EXPECT_EQ(config("recording.overhead"), "0.04");

  ASSERT_EQ(read.phases.size(), 2u);
  EXPECT_EQ(read.phases[0].name, "paper_campaigns_threads_1_ms");
  EXPECT_EQ(read.phases[0].seconds, 0.5);
  EXPECT_EQ(read.phases[1].name, "paper_campaigns_threads_2_ms");
  EXPECT_EQ(read.phases[1].seconds, 0.3);
  EXPECT_EQ(read.metrics.counter("campaign.tasks_executed"), 2048u);
}

TEST(ManifestReader, QuantileFieldsAreRecomputedNotTrusted) {
  // A document whose stored p95 is nonsense: the reader must ignore it
  // and recompute from the buckets.
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "t", "config": {}, "phases": [],
    "metrics": {"counters": {},
      "histograms": {"h": {"count": 4, "sum": 40, "min": 10, "max": 10,
        "p50": 999999, "p95": 999999, "p99": 999999,
        "buckets": [{"le": 15, "count": 4}]}}}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok());
  const HistogramSnapshot* h = read.metrics.histogram("h");
  ASSERT_NE(h, nullptr);
  // All four samples are 10 (min == max == 10): every quantile clamps
  // there, regardless of the bogus stored pNN.
  EXPECT_DOUBLE_EQ(h->quantile(0.95), 10.0);
}

TEST(ManifestReader, UnknownFieldsAndSectionsAreIgnored) {
  const std::string doc = R"({
    "manifest_schema": 1, "tool": "t",
    "config": {"k": 1}, "phases": [],
    "future_section": {"a": [1, 2, 3]},
    "metrics": {"counters": {"c": 5}, "histograms": {},
                "future_subsection": true}
  })";
  const ReadManifest read = ManifestReader::read_string(doc);
  ASSERT_TRUE(read.ok()) << read.errors.front();
  EXPECT_EQ(read.metrics.counter("c"), 5u);
}

TEST(ManifestReader, MalformedDocumentsReportErrors) {
  EXPECT_FALSE(ManifestReader::read_string("{truncated").ok());
  EXPECT_FALSE(ManifestReader::read_string("[1, 2]").ok());  // not an object
  EXPECT_FALSE(ManifestReader::read_string("").ok());
  EXPECT_FALSE(
      ManifestReader::read_file("/nonexistent-dir/manifest.json").ok());
}

TEST(ManifestReader, DocumentWithNeitherToolNorBenchmarkIsAnError) {
  EXPECT_FALSE(ManifestReader::read_string(R"({"something": "else"})").ok());
  // The retired hand-written bench shape (no "tool", per-thread "runs")
  // is not a run manifest either: no compatibility branch reads it.
  const ReadManifest legacy = ManifestReader::read_string(
      R"({"version": "abc1234", "runs": [{"threads": 1, "seconds": 0.5}]})");
  ASSERT_FALSE(legacy.ok());
  EXPECT_NE(legacy.errors.front().find("tool"), std::string::npos);
}

TEST(ManifestReader, DeeplyNestedDocumentIsAnErrorNotACrash) {
  // ~200 KB of brackets: an unbounded recursive descent overflows the
  // stack here; the bounded parser reports a JSON error instead.
  const std::string deep = R"({"tool": "x", "config": )" +
                           std::string(100'000, '[') +
                           std::string(100'000, ']') + "}";
  const ReadManifest read = ManifestReader::read_string(deep);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.errors.front().find("nesting"), std::string::npos);
}

}  // namespace
}  // namespace marcopolo::obs
