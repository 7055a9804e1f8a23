// Campaign wall-clock benchmark: run_paper_campaigns on the default
// testbed across worker-thread counts, writing one obs::RunManifest.
//
// Measures the end-to-end time of the paper's headline artifact (both
// attack-type hijack matrices) and checks the determinism invariant along
// the way: every thread count must produce a byte-identical ResultStore
// pair, with metrics enabled. The output is a run manifest like every
// other run document in the repo (`mpinspect summarize/diff/hotspots`
// read it), self-describing through its config echo: the source version
// (git describe), hostname, hardware thread count, perf-counter
// availability, the exact campaign config, and one flat key per
// measurement detail ("scaled.ases", "recording.overhead", ...). Each
// thread-count run is a wall-clock phase named
// paper_campaigns_threads_<n>_ms, gated by `mpinspect diff` like every
// other phase; the metrics section is the serial run's snapshot.
// Usage:
//
//   campaign_wallclock [--trace-out <dir>] [--phases <csv>]
//                      [--attacks <csv|all>] [--profile[=hz]]
//                      [--telemetry-out <dir|file>]
//                      [--serve-metrics <port>] [--tick-ms <n>]
//                      [output.json] [thread counts...]
//
// Defaults: manifest to "campaign_wallclock.json", thread counts
// {1, 2, 4, 8}, all phases.
//
// --profile attaches the in-process sampling profiler (default 997 Hz)
// to every recorded serial rep in the recording block. The
// "recording.overhead" ratio then measures recorder + profiler cost
// against the plain runs — the ≤3% budget the profiler must live
// inside — and the manifest gains its "profile" section (hot symbols)
// that `mpinspect diff` uses for hot-symbol regression attribution.
// With --trace-out the bundle additionally gets profile.folded and
// trace.json sample events.
//
// --phases selects which measurement groups run, so CI and local loops
// can re-run one gated phase without paying for the rest (in particular,
// re-measuring the optimizer or resilience kernels without the 50k-AS
// build). Tokens: runs, recording, optimizer, resilience, scaled, multi —
// or a gated phase name (optimizer_exhaustive_ms, resilience_kernel_ms,
// ...), which selects its group. Phases and config keys of skipped groups
// are omitted from the manifest and their exit-code checks don't apply;
// a ratio between two groups is written only when both ran.
//
// The multi group sweeps every registered attack type (narrow with
// --attacks <csv|all>) over the same 50k-AS testbed the scaled group
// uses — one campaign, one result-store plane per attack — and gates the
// total as multi_attack_campaign_ms. Because every plane reuses the
// announcer's propagation baseline, the per-attack cost should stay well
// below a standalone campaign; the "multi_attack.per_attack_ratio_vs_scaled"
// key states the measured ratio whenever the scaled group also ran.
//
// Every gated single-threaded phase runs under an obs::PhaseCounters
// scope: its phase row carries instructions/ipc/cache_miss_rate and
// peak-RSS next to the wall-clock, giving `mpinspect diff` a
// deterministic quantity to gate at 3% where wall-clock needs 25%. On
// hosts that deny perf_event_open the "perf_counters" config key says
// "unavailable" (with the errno in "perf_counters_reason") and the phase
// rows simply omit counter fields.
//
// The recording block always finishes with an extra serial run under the
// flight recorder and reports the relative cost as "recording.overhead"
// (plus the on/off byte-identity of the recorded run). With --trace-out
// the flight journal from a counter-enabled recorded run is exported as
// a trace bundle into <dir> — its task spans carry instructions/cycles
// args when the host has counters.
//
// --telemetry-out / --serve-metrics attach a live obs::TelemetryHub to
// every *recorded* rep of the recording block, so "recording.overhead"
// holds recorder + profiler + hub to the same 3% budget. The hub appends
// its tick time-series to <dir>/timeseries.ndjson (pass the --trace-out
// dir to get one self-checking bundle) and serves /metrics, /healthz,
// and /snapshot.json on 127.0.0.1:<port> while the phase runs (port 0 =
// kernel-assigned, echoed to stderr; a taken port degrades to
// "unavailable (reason)" without failing the run). --tick-ms sets the
// sampling period (default 1000).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "analysis/optimizer.hpp"
#include "analysis/scalar_reference.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/manifest.hpp"
#include "obs/perf_counters.hpp"
#include "obs/telemetry_hub.hpp"
#include "obs/profiler.hpp"
#include "obs/symbolize.hpp"
#include "obs/trace_export.hpp"

using namespace marcopolo;

#ifndef MARCOPOLO_GIT_DESCRIBE
#define MARCOPOLO_GIT_DESCRIBE "unknown"
#endif

namespace {

std::string store_bytes(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_csv(out);
  return out.str();
}

std::string dataset_bytes(const core::CampaignDataset& data) {
  return store_bytes(data.no_rpki) + store_bytes(data.rpki);
}

std::string hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

/// Registry names of `attacks`, comma-separated (a config-echo value).
std::string attack_names(const std::vector<bgp::AttackType>& attacks) {
  std::string names;
  for (const bgp::AttackType type : attacks) {
    names += (names.empty() ? "" : ",") + std::string(bgp::to_cstring(type));
  }
  return names;
}

/// Which measurement groups this invocation runs (--phases).
struct PhaseSelection {
  bool runs = true;
  bool recording = true;
  bool optimizer = true;
  bool resilience = true;
  bool scaled = true;
  bool multi = true;

  /// Parse a --phases csv; returns false on an unknown token.
  static bool parse(const std::string& csv, PhaseSelection& out,
                    std::string& bad_token) {
    out = PhaseSelection{false, false, false, false, false, false};
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      std::size_t comma = csv.find(',', pos);
      if (comma == std::string::npos) comma = csv.size();
      const std::string token = csv.substr(pos, comma - pos);
      pos = comma + 1;
      if (token.empty()) continue;
      // Gated phase names select the group that produces them, so a CI
      // log's failing phase name can be pasted straight back in.
      if (token == "runs") {
        out.runs = true;
      } else if (token == "recording") {
        out.recording = true;
      } else if (token == "optimizer" || token == "optimizer_exhaustive_ms" ||
                 token == "optimizer_exhaustive_scalar_ms") {
        out.optimizer = true;
      } else if (token == "resilience" || token == "resilience_kernel_ms") {
        out.resilience = true;
      } else if (token == "scaled" || token == "scaled_campaign_50k_ms") {
        out.scaled = true;
      } else if (token == "multi" || token == "multi_attack_campaign_ms") {
        out.multi = true;
      } else {
        bad_token = token;
        return false;
      }
    }
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string out_path;
  std::vector<std::size_t> thread_counts;
  PhaseSelection select;
  bool profile_on = false;
  std::uint32_t profile_hz = obs::kDefaultProfileHz;
  std::string telemetry_out;
  int serve_port = -1;
  int tick_ms = 1000;
  std::vector<bgp::AttackType> attack_list;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tick-ms") == 0 && i + 1 < argc) {
      tick_ms = std::atoi(argv[++i]);
      if (tick_ms <= 0) {
        std::cerr << "bad --tick-ms: " << argv[i] << std::endl;
        return 2;
      }
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile_on = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile_on = true;
      const long hz = std::strtol(argv[i] + 10, nullptr, 10);
      if (hz <= 0) {
        std::cerr << "bad --profile rate: " << (argv[i] + 10) << std::endl;
        return 2;
      }
      profile_hz = static_cast<std::uint32_t>(hz);
    } else if (std::strcmp(argv[i], "--phases") == 0 && i + 1 < argc) {
      std::string bad;
      if (!PhaseSelection::parse(argv[++i], select, bad)) {
        std::cerr << "unknown phase \"" << bad
                  << "\" (valid: runs, recording, optimizer, resilience, "
                     "scaled, multi, or a gated phase name)"
                  << std::endl;
        return 2;
      }
    } else if (std::strcmp(argv[i], "--attacks") == 0 && i + 1 < argc) {
      try {
        attack_list = bgp::parse_attack_list(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << std::endl;
        return 2;
      }
    } else if (out_path.empty()) {
      out_path = argv[i];
    } else {
      try {
        thread_counts.push_back(static_cast<std::size_t>(std::stoul(argv[i])));
      } catch (const std::exception&) {
        std::cerr << "usage: campaign_wallclock [--trace-out <dir>] "
                     "[--phases <csv>] [output.json] [thread counts...]\n"
                     "  bad thread count: "
                  << argv[i] << std::endl;
        return 2;
      }
    }
  }
  if (out_path.empty()) out_path = "campaign_wallclock.json";
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};

  const auto clock = [] { return std::chrono::steady_clock::now(); };
  constexpr std::uint64_t kSeed = 0xCAFE;

  // One perf group for every single-threaded gated phase below (phases
  // run on this thread; the parallel sweep is gated on wall-clock only,
  // where a per-thread group could not see the workers anyway).
  const bool counters_available = obs::PerfCounterGroup::probe();
  obs::PerfCounterGroup perf;
  const obs::PerfCounterGroup* perf_group =
      perf.available() ? &perf : nullptr;
  std::cerr << "perf counters: "
            << (counters_available ? "available"
                                   : "unavailable (" +
                                         obs::PerfCounterGroup::probe_reason() +
                                         ")")
            << std::endl;

  const bool need_default_testbed = select.runs || select.recording ||
                                    select.optimizer || select.resilience;
  std::optional<core::Testbed> testbed;
  if (need_default_testbed) {
    std::cerr << "building default testbed..." << std::endl;
    testbed.emplace(core::TestbedConfig{});
  }

  obs::RunManifest manifest("campaign_wallclock");
  manifest.set("version", MARCOPOLO_GIT_DESCRIBE);
  manifest.set("hostname", hostname());
  manifest.set("perf_counters",
               counters_available ? "available" : "unavailable");
  if (!counters_available) {
    manifest.set("perf_counters_reason",
                 obs::PerfCounterGroup::probe_reason());
  }
  manifest.set("hardware_concurrency",
               std::uint64_t{std::thread::hardware_concurrency()});
  std::string counts;
  for (const std::size_t threads : thread_counts) {
    counts += (counts.empty() ? "" : ",") + std::to_string(threads);
  }
  manifest.set("thread_counts", counts);
  if (testbed) {
    manifest.set("testbed", "default");
    manifest.set("sites", testbed->sites().size());
    manifest.set("perspectives", testbed->perspectives().size());
    manifest.set("attack_types",
                 attack_names({bgp::AttackType::EquallySpecific,
                               bgp::AttackType::ForgedOriginPrepend}));
    manifest.set("tie_break", "hashed");
    manifest.set("tie_break_seed", kSeed);
    manifest.set("metrics_enabled", true);
  }

  std::vector<std::size_t> mismatched_threads;
  std::string reference;
  double serial_seconds = 0.0;
  obs::MetricsSnapshot serial_metrics;
  bool have_serial_metrics = false;
  std::optional<core::CampaignDataset> analysis_data;

  if (select.runs) {
    for (const std::size_t threads : thread_counts) {
      // Fresh registry per run so each snapshot describes one run only;
      // the invariant check below therefore also covers "metrics
      // enabled". hw_counters stays OFF for the timed sweep: the
      // per-task group reads would cost ~10% on the serial row and the
      // wall-clock gate would eat the difference.
      obs::MetricsRegistry registry;
      const auto t0 = clock();
      const auto data = core::run_paper_campaigns(
          *testbed, bgp::TieBreakMode::Hashed, kSeed, threads, &registry);
      const auto t1 = clock();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const std::string bytes = dataset_bytes(data);
      if (reference.empty()) reference = bytes;
      const bool identical = bytes == reference;
      if (!identical) mismatched_threads.push_back(threads);
      if (threads == 1) {
        serial_seconds = secs;
        serial_metrics = registry.snapshot();
        have_serial_metrics = true;
      }
      if (!analysis_data) analysis_data = data;
      manifest.add_phase(
          "paper_campaigns_threads_" + std::to_string(threads) + "_ms", secs);
      std::cerr << "threads=" << threads << "  " << secs << " s  "
                << (identical ? "identical" : "MISMATCH") << std::endl;
    }
    manifest.set("runs.store_identical", mismatched_threads.empty());
    if (!have_serial_metrics && !thread_counts.empty()) {
      // No serial run requested: describe the first run instead.
      obs::MetricsRegistry registry;
      const auto t0 = clock();
      (void)core::run_paper_campaigns(*testbed, bgp::TieBreakMode::Hashed,
                                      kSeed, thread_counts.front(),
                                      &registry);
      serial_seconds = std::chrono::duration<double>(clock() - t0).count();
      serial_metrics = registry.snapshot();
      have_serial_metrics = true;
    }
  }
  if ((select.optimizer || select.resilience) && !analysis_data) {
    // Optimizer/resilience phases score a campaign's outcome plane; with
    // the sweep skipped, produce it once, untimed.
    std::cerr << "campaign for analysis phases (untimed)..." << std::endl;
    obs::MetricsRegistry registry;
    analysis_data = core::run_paper_campaigns(
        *testbed, bgp::TieBreakMode::Hashed, kSeed, 1, &registry);
    if (!have_serial_metrics) {
      serial_metrics = registry.snapshot();
      have_serial_metrics = true;
    }
  }

  // Recording-overhead measurement: alternate plain and recorded serial
  // runs and compare the minima, so scheduler noise (easily ±5% on a
  // loaded box) cancels out of the ratio. Target: <3% overhead; the
  // recorded stores must stay byte-identical (pure-observer invariant).
  constexpr int kOverheadReps = 3;
  bool recorded_identical = true;
  // With --profile every recorded rep runs under the sampling profiler,
  // so "recording.overhead" below measures recorder + profiler cost and
  // the 3% budget covers both. One profiler accumulates across reps and
  // is drained once, after the last recorded run.
  std::optional<obs::SamplingProfiler> profiler_storage;
  obs::SamplingProfiler* profiler = nullptr;
  obs::CpuProfile cpu_profile;
  if (profile_on && select.recording) {
    profiler_storage.emplace(profile_hz);
    profiler = &*profiler_storage;
    if (!profiler->available()) {
      std::cerr << "profiler unavailable: " << profiler->unavailable_reason()
                << std::endl;
    }
  }
  if (select.recording) {
    std::cerr << "serial runs with flight recorder"
              << (profiler != nullptr && profiler->available()
                      ? " and profiler..."
                      : "...")
              << std::endl;
    // The telemetry hub rides every *recorded* rep — one hub for the
    // whole phase, so tick ids stay monotone across reps and the
    // overhead ratio prices recorder + profiler + hub together. The
    // recorder and registry are hoisted to keep the hub's pointers
    // valid: drain() resets the recorder between reps, and the per-rep
    // registry swap rebinds the hub around the emplace (set_metrics
    // synchronizes with the tick, so the old registry can die safely).
    const bool telemetry_on = !telemetry_out.empty() || serve_port >= 0;
    double plain_best = 0.0;
    double recorded_seconds = 0.0;
    std::size_t journal_tasks = 0;
    std::size_t journal_verdicts = 0;
    obs::FlightRecorder flight_recorder;
    std::optional<obs::MetricsRegistry> registry;
    std::optional<obs::TelemetryHub> hub;
    if (telemetry_on) {
      obs::TelemetryConfig tcfg;
      tcfg.tick_ms = tick_ms;
      tcfg.timeseries_path = telemetry_out;
      tcfg.serve_port = serve_port;
      tcfg.recorder = &flight_recorder;
      hub.emplace(tcfg);
      hub->start();
      if (serve_port >= 0) {
        if (hub->serving()) {
          std::cerr << "telemetry: serving http://127.0.0.1:" << hub->port()
                    << "/metrics" << std::endl;
        } else {
          std::cerr << "telemetry server unavailable ("
                    << hub->serve_reason() << ")" << std::endl;
        }
      }
    }
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      {
        const auto t0 = clock();
        const auto data = core::run_paper_campaigns(
            *testbed, bgp::TieBreakMode::Hashed, kSeed, 1);
        const double secs =
            std::chrono::duration<double>(clock() - t0).count();
        if (rep == 0 || secs < plain_best) plain_best = secs;
        if (reference.empty()) reference = dataset_bytes(data);
      }
      // The last rep is the one exported with --trace-out; it runs with
      // hw_counters so recorded task spans carry instruction/cycle args.
      // That rep is excluded from the best-of overhead timing: counter
      // reads are part of counter attribution, not recording cost.
      const bool counters_rep =
          rep == kOverheadReps - 1 && !trace_out.empty();
      if (hub) hub->set_metrics(nullptr);
      registry.emplace();
      if (hub) hub->set_metrics(&*registry);
      const auto t0 = clock();
      const auto data = core::run_paper_campaigns(
          *testbed, bgp::TieBreakMode::Hashed, kSeed, 1, &*registry,
          &flight_recorder, /*hw_counters=*/counters_rep, profiler,
          hub ? &*hub : nullptr);
      const double secs = std::chrono::duration<double>(clock() - t0).count();
      if (!counters_rep && (rep == 0 || secs < recorded_seconds)) {
        recorded_seconds = secs;
      }
      recorded_identical =
          recorded_identical && dataset_bytes(data) == reference;
      const obs::FlightJournal journal = flight_recorder.drain();
      journal_tasks = journal.task_count();
      journal_verdicts = journal.verdict_count();
      if (rep == kOverheadReps - 1 && profiler != nullptr) {
        cpu_profile = obs::symbolize_profile(profiler->drain());
        if (cpu_profile.available && cpu_profile.samples > 0) {
          std::cerr << "cpu profile: " << cpu_profile.samples
                    << " samples @ " << profile_hz << " Hz, hottest "
                    << (cpu_profile.symbols.empty()
                            ? "(none)"
                            : cpu_profile.symbols.front().name)
                    << std::endl;
        }
      }
      if (rep == kOverheadReps - 1 && !trace_out.empty()) {
        const obs::MetricsSnapshot snap = registry->snapshot();
        const bool with_profile =
            cpu_profile.available && cpu_profile.samples > 0;
        if (!obs::write_trace_dir(trace_out, journal, &snap,
                                  with_profile ? &cpu_profile : nullptr)) {
          std::cerr << "failed to write trace bundle to " << trace_out
                    << std::endl;
          return 1;
        }
        std::cerr << "wrote trace bundle to " << trace_out << std::endl;
      }
    }
    // Final tick (marked "final":true) scrapes the last rep's registry,
    // which is what check_trace_bundle holds against metrics.prom.
    if (hub) hub->stop();
    const double overhead =
        plain_best > 0.0 ? recorded_seconds / plain_best - 1.0 : 0.0;
    std::cerr << "recording overhead: " << overhead * 100.0 << "% ("
              << recorded_seconds << " s vs " << plain_best << " s, best of "
              << kOverheadReps << ")  "
              << (recorded_identical ? "identical" : "MISMATCH") << std::endl;
    manifest.set("recording.seconds", recorded_seconds);
    manifest.set("recording.overhead", overhead);
    manifest.set("recording.store_identical", recorded_identical);
    manifest.set("recording.task_spans", journal_tasks);
    manifest.set("recording.verdicts", journal_verdicts);
    manifest.set("recording.profiled",
                 profiler != nullptr && profiler->available());
    // Serialized only when the profile holds samples (RunManifest gate).
    manifest.set_profile(cpu_profile);
  }

  // Exhaustive-optimizer phase: the analysis layer's hot loop at benchmark
  // scale — a (6, N-2) search over every GCP perspective, C(40, 6) =
  // 3,838,380 candidate sets, single-threaded so thread count never skews
  // the phase. The identical search then runs on the retained scalar
  // reference (the seed's byte-per-pair path), so one output file both
  // demonstrates the packed-kernel speedup and gives the CI gate a packed
  // wall-clock phase to hold.
  std::vector<analysis::PerspectiveIndex> gcp;
  std::optional<analysis::ResilienceAnalyzer> analyzer;
  bool optimizer_agree = true;
  if (select.optimizer || select.resilience) {
    gcp = testbed->perspectives_of(topo::CloudProvider::Gcp);
    analyzer.emplace(analysis_data->no_rpki);
  }
  if (select.optimizer) {
    std::cerr << "exhaustive optimizer, (6, N-2) over GCP..." << std::endl;
    const analysis::DeploymentOptimizer optimizer(*analyzer);
    analysis::OptimizerConfig ocfg;
    ocfg.set_size = 6;
    ocfg.max_failures = 2;
    ocfg.candidates = gcp;
    ocfg.top_k = 1;
    ocfg.threads = 1;
    ocfg.hw_counters = true;  // per-worker SearchStats attribution
    analysis::SearchStats opt_stats;
    ocfg.stats = &opt_stats;
    obs::PhaseStats packed_stats;
    analysis::RankedDeployment packed_best;
    const auto opt_t0 = clock();
    {
      obs::PhaseCounters scope(perf_group, &packed_stats);
      packed_best = optimizer.best(ocfg);
    }
    const double optimizer_seconds =
        std::chrono::duration<double>(clock() - opt_t0).count();
    manifest.add_phase("optimizer_exhaustive_ms", optimizer_seconds,
                       packed_stats);
    std::cerr << "  packed: " << optimizer_seconds << " s  ("
              << opt_stats.complete_sets_scored << " sets scored, "
              << opt_stats.subtrees_pruned << " subtrees pruned)"
              << std::endl;

    const analysis::ScalarReference scalar(analysis_data->no_rpki);
    const std::size_t opt_required = ocfg.set_size - ocfg.max_failures;
    obs::PhaseStats scalar_stats;
    const auto scalar_t0 = clock();
    analysis::ScalarSearchBest scalar_best;
    {
      obs::PhaseCounters scope(perf_group, &scalar_stats);
      scalar_best = analysis::scalar_exhaustive_best(scalar, gcp,
                                                     ocfg.set_size,
                                                     opt_required);
    }
    const double optimizer_scalar_seconds =
        std::chrono::duration<double>(clock() - scalar_t0).count();
    manifest.add_phase("optimizer_exhaustive_scalar_ms",
                       optimizer_scalar_seconds, scalar_stats);
    optimizer_agree =
        packed_best.score.median == scalar_best.score.median &&
        packed_best.score.average == scalar_best.score.average &&
        packed_best.spec.remotes == scalar_best.set;
    const double optimizer_speedup =
        optimizer_seconds > 0.0 ? optimizer_scalar_seconds / optimizer_seconds
                                : 0.0;
    std::cerr << "  scalar: " << optimizer_scalar_seconds
              << " s  (packed speedup " << optimizer_speedup << "x)  "
              << (optimizer_agree ? "identical" : "MISMATCH") << std::endl;
    manifest.set("optimizer.candidates", gcp.size());
    manifest.set("optimizer.set_size", ocfg.set_size);
    manifest.set("optimizer.max_failures", ocfg.max_failures);
    manifest.set("optimizer.threads", ocfg.threads);
    manifest.set("optimizer.complete_sets_scored",
                 opt_stats.complete_sets_scored);
    manifest.set("optimizer.subtrees_pruned", opt_stats.subtrees_pruned);
    if (opt_stats.counters.valid) {
      manifest.set("optimizer.instructions", opt_stats.counters.instructions);
      manifest.set("optimizer.cycles", opt_stats.counters.cycles);
    }
    manifest.set("optimizer.best_median", packed_best.score.median);
    manifest.set("optimizer.best_average", packed_best.score.average);
    manifest.set("optimizer.packed_speedup_vs_scalar", optimizer_speedup);
    manifest.set("optimizer.scalar_agrees", optimizer_agree);
  }

  // Resilience-kernel phase: the direct packed-word kernel in isolation —
  // build_success_mask + score over sliding 6-windows of the GCP pool at
  // every quorum from 6-0 to 6-5, repeated to a stable ~100ms. This is
  // the innermost loop every ROADMAP SIMD item targets; with counters it
  // becomes the lowest-noise number in the file (a fixed instruction
  // stream, no allocation, no propagation). The checksum both defeats
  // dead-code elimination and doubles as a determinism check.
  if (select.resilience) {
    std::cerr << "resilience direct kernel sweep..." << std::endl;
    double resilience_seconds = 0.0;
    double resilience_checksum = 0.0;
    std::uint64_t resilience_sets_scored = 0;
    analysis::ResilienceAnalyzer::ScoreScratch scratch =
        analyzer->make_scratch();
    constexpr std::size_t kWindow = 6;
    constexpr int kKernelReps = 40;
    obs::PhaseStats best_stats;
    for (int rep = 0; rep < 3; ++rep) {
      double checksum = 0.0;
      std::uint64_t scored = 0;
      obs::PhaseStats stats;
      const auto t0 = clock();
      {
        obs::PhaseCounters scope(perf_group, &stats);
        for (int r = 0; r < kKernelReps; ++r) {
          for (std::size_t start = 0; start + kWindow <= gcp.size();
               ++start) {
            const std::span<const analysis::PerspectiveIndex> set(
                gcp.data() + start, kWindow);
            for (std::size_t required = 1; required <= kWindow; ++required) {
              const auto score =
                  analyzer->score_set(set, required, std::nullopt, scratch);
              checksum += score.median + score.average;
              ++scored;
            }
          }
        }
      }
      const double secs = std::chrono::duration<double>(clock() - t0).count();
      if (rep == 0 || secs < resilience_seconds) {
        resilience_seconds = secs;
        best_stats = stats;
      }
      resilience_checksum = checksum;
      resilience_sets_scored = scored;
    }
    manifest.add_phase("resilience_kernel_ms", resilience_seconds,
                       best_stats);
    std::cerr << "  " << resilience_sets_scored << " scores in "
              << resilience_seconds << " s (best of 3), checksum "
              << resilience_checksum << std::endl;
    manifest.set("resilience_kernel.candidates", gcp.size());
    manifest.set("resilience_kernel.window", kWindow);
    manifest.set("resilience_kernel.sets_scored", resilience_sets_scored);
    manifest.set("resilience_kernel.checksum", resilience_checksum);
  }

  // Scaled-topology phase: a full 32x31 campaign on a 50k-AS Internet.
  // The incremental engine (one baseline per announcer, delta replays per
  // adversary) is what keeps this within a small multiple of the default
  // ~900-AS testbed's per-matrix wall clock; the phase entry below puts
  // that claim under the CI regression gate.
  double scaled_build_seconds = 0.0;
  double scaled_seconds = 0.0;
  bool scaled_complete = true;
  std::size_t scaled_ases = 0;
  std::size_t scaled_sites = 0;
  // One 50k-AS build serves both the scaled and the multi-attack phase.
  const bool need_scaled_testbed = select.scaled || select.multi;
  std::optional<core::Testbed> scaled_testbed;
  if (need_scaled_testbed) {
    std::cerr << "building 50k-AS testbed..." << std::endl;
    core::TestbedConfig scaled_cfg;
    scaled_cfg.internet = topo::scaled_internet_config(50000);
    const auto build_t0 = clock();
    scaled_testbed.emplace(scaled_cfg);
    scaled_build_seconds =
        std::chrono::duration<double>(clock() - build_t0).count();
    scaled_ases = scaled_testbed->internet().graph().size();
    scaled_sites = scaled_testbed->sites().size();
    std::cerr << "  " << scaled_ases << " ASes in " << scaled_build_seconds
              << " s" << std::endl;
  }
  if (select.scaled) {
    core::FastCampaignConfig scaled_run;
    scaled_run.threads = 1;
    // Best of 3: a fresh 50k-AS heap makes single runs jitter by tens of
    // percent (page faults, allocator warm-up), which would flap the gate.
    obs::PhaseStats best_stats;
    for (int rep = 0; rep < 3; ++rep) {
      obs::PhaseStats stats;
      const auto scaled_t0 = clock();
      std::optional<core::ResultStore> scaled_store;
      {
        obs::PhaseCounters scope(perf_group, &stats);
        scaled_store = core::run_fast_campaign(*scaled_testbed, scaled_run);
      }
      const double rep_seconds =
          std::chrono::duration<double>(clock() - scaled_t0).count();
      if (rep == 0 || rep_seconds < scaled_seconds) {
        scaled_seconds = rep_seconds;
        best_stats = stats;
      }
      for (core::SiteIndex v = 0; v < scaled_store->num_sites(); ++v) {
        for (core::SiteIndex a = 0; a < scaled_store->num_sites(); ++a) {
          if (v != a && !scaled_store->pair_complete(v, a)) {
            scaled_complete = false;
          }
        }
      }
    }
    manifest.add_phase("scaled_campaign_50k_ms", scaled_seconds, best_stats);
    manifest.set("scaled.ases", scaled_ases);
    manifest.set("scaled.sites", scaled_sites);
    // The 50k testbed build is allocation-bound and jitters ~30% run to
    // run, so it is reported here but not gated as a phase.
    manifest.set("scaled.build_seconds", scaled_build_seconds);
    manifest.set("scaled.campaign_seconds", scaled_seconds);
    std::cerr << "scaled campaign: " << scaled_seconds << " s  ";
    if (select.runs) {
      // The serial default run covers two hijack matrices; compare per
      // matrix.
      const double ratio = scaled_seconds / (serial_seconds * 0.5);
      manifest.set("scaled.per_matrix_ratio_vs_default", ratio);
      std::cerr << "(" << ratio << "x the default per-matrix serial run)  ";
    }
    std::cerr << (scaled_complete ? "complete" : "INCOMPLETE") << std::endl;
    manifest.set("scaled.complete", scaled_complete);
  }

  // Multi-attack phase: every attack type in one campaign over the same
  // 50k-AS testbed — one store plane per type, each reusing the
  // announcer's baseline. Gated as a whole; the per-attack ratio against
  // the single-attack scaled phase quantifies the baseline-sharing win.
  double multi_seconds = 0.0;
  bool multi_complete = true;
  std::vector<bgp::AttackType> multi_attacks = attack_list;
  if (multi_attacks.empty()) {
    const auto all = bgp::all_attack_types();
    multi_attacks.assign(all.begin(), all.end());
  }
  if (select.multi) {
    std::cerr << "multi-attack campaign (" << multi_attacks.size()
              << " types) on the 50k-AS testbed..." << std::endl;
    core::FastCampaignConfig multi_run;
    multi_run.threads = 1;
    multi_run.attacks = multi_attacks;
    obs::PhaseStats best_stats;
    for (int rep = 0; rep < 3; ++rep) {
      obs::PhaseStats stats;
      const auto multi_t0 = clock();
      std::optional<core::ResultStore> multi_store;
      {
        obs::PhaseCounters scope(perf_group, &stats);
        multi_store = core::run_fast_campaign(*scaled_testbed, multi_run);
      }
      const double rep_seconds =
          std::chrono::duration<double>(clock() - multi_t0).count();
      if (rep == 0 || rep_seconds < multi_seconds) {
        multi_seconds = rep_seconds;
        best_stats = stats;
      }
      for (std::size_t ai = 0; ai < multi_store->num_attacks(); ++ai) {
        for (core::SiteIndex v = 0; v < multi_store->num_sites(); ++v) {
          for (core::SiteIndex a = 0; a < multi_store->num_sites(); ++a) {
            if (v != a && !multi_store->pair_complete(ai, v, a)) {
              multi_complete = false;
            }
          }
        }
      }
    }
    manifest.add_phase("multi_attack_campaign_ms", multi_seconds,
                       best_stats);
    manifest.set("multi_attack.ases", scaled_ases);
    manifest.set("multi_attack.sites", scaled_sites);
    manifest.set("multi_attack.attack_types", attack_names(multi_attacks));
    manifest.set("multi_attack.campaign_seconds", multi_seconds);
    std::cerr << "multi-attack campaign: " << multi_seconds << " s  ";
    if (select.scaled) {
      const double ratio =
          multi_seconds /
          (static_cast<double>(multi_attacks.size()) * scaled_seconds);
      manifest.set("multi_attack.per_attack_ratio_vs_scaled", ratio);
      std::cerr << "(" << ratio
                << "x the single-attack scaled run per attack)  ";
    }
    std::cerr << (multi_complete ? "complete" : "INCOMPLETE") << std::endl;
    manifest.set("multi_attack.complete", multi_complete);
  }

  if (!manifest.write_file(out_path, serial_metrics)) {
    std::cerr << "failed to write " << out_path << std::endl;
    return 1;
  }
  std::cerr << "wrote " << out_path << std::endl;

  for (const std::size_t threads : mismatched_threads) {
    std::cerr << "determinism violation at threads=" << threads << std::endl;
  }
  if (!mismatched_threads.empty()) return 1;
  if (select.recording && !recorded_identical) {
    std::cerr << "determinism violation with flight recorder on" << std::endl;
    return 1;
  }
  if (select.optimizer && !optimizer_agree) {
    std::cerr << "packed optimizer disagrees with scalar reference"
              << std::endl;
    return 1;
  }
  if (select.scaled && !scaled_complete) {
    std::cerr << "scaled campaign left incomplete pairs" << std::endl;
    return 1;
  }
  if (select.multi && !multi_complete) {
    std::cerr << "multi-attack campaign left incomplete pairs" << std::endl;
    return 1;
  }
  return 0;
}
