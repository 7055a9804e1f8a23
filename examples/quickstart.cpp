// Quickstart: build the testbed, run a MarcoPolo campaign, and evaluate a
// few MPIC deployments.
//
// This walks the three core steps of the framework:
//   1. Assemble the measurement environment (synthetic Internet + 32 Vultr
//      victim/adversary sites + 106 cloud perspectives).
//   2. Run the pairwise hijack campaign (the fast path computes the same
//      hijacked(P, v, a) dataset the orchestrator measures), plus a small
//      orchestrated slice of the five-step protocol for comparison.
//   3. Ask post-hoc questions: how resilient is a single perspective? an
//      optimized (6, N-2) deployment per provider? the production systems?
//
// With `--attacks <csv|all>` (names from the attack registry, e.g.
// "equally-specific,route-leak") an extra multi-attack sweep runs after
// the paper campaigns: one campaign, one result plane per attack type,
// every plane sharing each victim's propagation baseline.
//
// With `--metrics-out run.json` every subsystem is instrumented through
// obs::MetricsRegistry and the run ends by writing a RunManifest: config
// echo, wall-clock phases, campaign/propagation/orchestrator/optimizer
// counters, and per-phase latency histograms.
//
// With `--trace-out <dir>` the campaigns additionally run under a flight
// recorder and the run ends by writing a trace bundle into <dir>:
// trace.json (Chrome trace_event, loadable at ui.perfetto.dev) and
// journal.ndjson (per-verdict decision provenance); counter totals stay
// in the `--metrics-out` manifest. `--progress` draws a live
// `[campaign] done/total ... ETA` stderr line at every telemetry tick
// (`--tick-ms`, default 1s) and a summary line when the work drains;
// `--verbose` turns on the timestamped leveled log. `--profile[=hz]`
// samples campaign and optimizer worker CPU with the in-process profiler
// (default 997 Hz): hot symbols land in the manifest, profile.folded
// joins the trace bundle, and sample events merge into trace.json.
//
// `--telemetry-out <dir|file>` / `--serve-metrics <port>` attach a live
// obs::TelemetryHub for the whole run: a sampler tick (default 1s, set
// with `--tick-ms`) appends timeseries.ndjson (pass the --trace-out dir
// to get one self-checking bundle) and serves /metrics, /healthz, and
// /snapshot.json on 127.0.0.1:<port> — watch with `mpinspect watch
// http://127.0.0.1:<port>`. A taken port degrades to "unavailable
// (reason)"; results are byte-identical either way.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/optimizer.hpp"
#include "analysis/report.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "marcopolo/orchestrator.hpp"
#include "marcopolo/production_systems.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "obs/run_compare.hpp"
#include "obs/symbolize.hpp"
#include "obs/telemetry_hub.hpp"
#include "obs/timer.hpp"
#include "obs/trace_export.hpp"

using namespace marcopolo;

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  bool progress = false;
  bool verbose = false;
  bool profile = false;
  std::uint32_t profile_hz = obs::kDefaultProfileHz;
  std::string telemetry_out;
  int serve_port = -1;
  int tick_ms = 1000;
  std::vector<bgp::AttackType> extra_attacks;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--attacks") == 0 && i + 1 < argc) {
      try {
        extra_attacks = bgp::parse_attack_list(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      progress = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile = true;
      const long hz = std::strtol(argv[i] + 10, nullptr, 10);
      if (hz <= 0) {
        std::fprintf(stderr, "bad --profile rate: %s\n", argv[i] + 10);
        return 2;
      }
      profile_hz = static_cast<std::uint32_t>(hz);
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tick-ms") == 0 && i + 1 < argc) {
      tick_ms = std::atoi(argv[++i]);
      if (tick_ms <= 0) {
        std::fprintf(stderr, "bad --tick-ms: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: quickstart [--attacks <csv|all>] "
                   "[--metrics-out <file.json>] "
                   "[--trace-out <dir>] [--progress] [--verbose] "
                   "[--profile[=hz]] [--telemetry-out <dir|file>] "
                   "[--serve-metrics <port>] [--tick-ms <n>]\n");
      return 2;
    }
  }
  if (verbose) {
    obs::Logger::global().set_stderr_sink(obs::LogLevel::Debug,
                                          /*timestamps=*/true);
  }
  obs::MetricsRegistry registry;
  // Attached when something reads it: the manifest, or the hub's
  // /metrics body and per-tick hot phase.
  obs::MetricsRegistry* metrics =
      metrics_out.empty() && serve_port < 0 && telemetry_out.empty()
          ? nullptr
          : &registry;
  obs::FlightRecorder flight_recorder;
  obs::FlightRecorder* recorder =
      trace_out.empty() ? nullptr : &flight_recorder;
  std::optional<obs::SamplingProfiler> profiler_storage;
  obs::SamplingProfiler* profiler = nullptr;
  if (profile) {
    profiler_storage.emplace(profile_hz);
    profiler = &*profiler_storage;
    if (!profiler->available()) {
      // Degraded, not fatal: the run proceeds unprofiled and produces
      // byte-identical results (the pure-observer contract).
      std::fprintf(stderr, "profiler unavailable: %s\n",
                   profiler->unavailable_reason().c_str());
    }
  }
  std::optional<obs::TelemetryHub> hub_storage;
  obs::TelemetryHub* hub = nullptr;
  if (!telemetry_out.empty() || serve_port >= 0 || progress) {
    obs::TelemetryConfig tcfg;
    tcfg.tick_ms = tick_ms;
    tcfg.timeseries_path = telemetry_out;
    tcfg.serve_port = serve_port;
    tcfg.metrics = metrics;
    tcfg.recorder = recorder;
    tcfg.progress = progress ? stderr : nullptr;
    hub_storage.emplace(tcfg);
    hub = &*hub_storage;
    hub->start();
    if (serve_port >= 0) {
      if (hub->serving()) {
        std::fprintf(stderr, "telemetry: serving http://127.0.0.1:%d\n",
                     hub->port());
      } else {
        // Degraded, not fatal: the run proceeds unserved and produces
        // byte-identical results (the pure-observer contract).
        std::fprintf(stderr, "telemetry: endpoint unavailable (%s)\n",
                     hub->serve_reason().c_str());
      }
    }
  }
  obs::RunManifest manifest("quickstart");

  // 1. Testbed.
  obs::PhaseClock phase;
  core::TestbedConfig tb_config;
  core::Testbed testbed(tb_config);
  manifest.add_phase("build_testbed", phase.seconds());
  std::printf("Testbed: %zu ASes, %zu Vultr sites, %zu perspectives\n",
              testbed.internet().graph().size(), testbed.sites().size(),
              testbed.perspectives().size());

  // 2. Campaign: every ordered victim/adversary pair, equally-specific
  //    hijacks, hashed route-age tie break.
  phase.restart();
  const auto dataset = core::run_paper_campaigns(
      testbed, bgp::TieBreakMode::Hashed, 0xCAFE, /*threads=*/0, metrics,
      recorder, /*hw_counters=*/false, profiler, hub);
  manifest.add_phase("fast_campaign", phase.seconds());
  std::printf("Campaign: %zu attacks recorded (plus RPKI variant)\n",
              testbed.sites().size() * (testbed.sites().size() - 1));

  // 2b'. Optional multi-attack sweep: one campaign, one store plane per
  //      requested attack type, all sharing each victim's baseline.
  if (!extra_attacks.empty()) {
    phase.restart();
    core::FastCampaignConfig sweep;
    sweep.attacks = extra_attacks;
    sweep.tie_break = bgp::TieBreakMode::Hashed;
    sweep.tie_break_seed = 0xCAFE;
    sweep.metrics = metrics;
    sweep.recorder = recorder;
    sweep.profiler = profiler;
    sweep.telemetry = hub;
    const auto sweep_store = core::run_fast_campaign(testbed, sweep);
    manifest.add_phase("multi_attack_sweep", phase.seconds());
    analysis::TextTable sweep_table({"Attack", "Hijacked verdicts"});
    const auto n = static_cast<core::SiteIndex>(sweep_store.num_sites());
    for (std::size_t ai = 0; ai < sweep_store.num_attacks(); ++ai) {
      std::size_t hijacked = 0;
      for (core::SiteIndex v = 0; v < n; ++v) {
        for (core::SiteIndex a = 0; a < n; ++a) {
          if (v == a) continue;
          for (const auto& rec : testbed.perspectives()) {
            if (sweep_store.hijacked(ai, v, a, rec.index)) ++hijacked;
          }
        }
      }
      sweep_table.add_row(
          {bgp::to_cstring(sweep_store.attack_types()[ai]),
           std::to_string(hijacked)});
    }
    std::printf("\nMulti-attack sweep (%zu planes):\n%s",
                sweep_store.num_attacks(), sweep_table.to_string().c_str());
  }

  // 2b. A small orchestrated slice of the five-step protocol — enough to
  //     populate the orchestrator's attempt/retry accounting without the
  //     full 992-pair run (blackbox_audit does that).
  phase.restart();
  core::OrchestratorConfig orch_cfg;
  for (core::SiteIndex v = 0; v < 2; ++v) {
    for (core::SiteIndex a = 30; a < 32; ++a) orch_cfg.pairs.emplace_back(v, a);
  }
  orch_cfg.prefix_lanes = 2;
  orch_cfg.loss = netsim::LossModel{0.01, 0.01};
  orch_cfg.metrics = metrics;
  orch_cfg.recorder = recorder;
  orch_cfg.telemetry = hub;
  core::Orchestrator orchestrator(testbed, orch_cfg);
  const auto orch_out = orchestrator.run();
  manifest.add_phase("orchestrated_slice", phase.seconds());
  if (metrics != nullptr) {
    const auto snap = registry.snapshot();
    std::printf("\nOrchestrated slice (%zu pairs):\n%s",
                orch_cfg.pairs.size(),
                analysis::format_campaign_stats(orch_out.stats, &snap).c_str());
  } else {
    std::printf("\nOrchestrated slice (%zu pairs):\n%s",
                orch_cfg.pairs.size(),
                analysis::format_campaign_stats(orch_out.stats).c_str());
  }

  // 3a. Single-perspective (no MPIC) baseline per provider.
  phase.restart();
  analysis::ResilienceAnalyzer plain(dataset.no_rpki);
  analysis::DeploymentOptimizer optimizer(plain);
  analysis::TextTable table(
      {"Deployment", "Config", "Median", "Average", "25th pct"});

  for (const auto provider :
       {topo::CloudProvider::Aws, topo::CloudProvider::Azure,
        topo::CloudProvider::Gcp}) {
    analysis::OptimizerConfig single;
    single.set_size = 1;
    single.max_failures = 0;
    single.candidates = testbed.perspectives_of(provider);
    single.name_prefix = std::string(topo::to_string_view(provider));
    single.metrics = metrics;
    single.profiler = profiler;
    const auto best1 = optimizer.best(single);
    const auto s1 = plain.evaluate(best1.spec);
    table.add_row({std::string(topo::to_string_view(provider)), "(1, N)",
                   analysis::format_resilience(s1.median),
                   analysis::format_resilience(s1.average),
                   analysis::format_resilience(s1.p25)});
  }

  // 3b. Optimal (6, N-2) per provider (beam search keeps this quick;
  //     the table2 bench runs the exhaustive version).
  for (const auto provider :
       {topo::CloudProvider::Aws, topo::CloudProvider::Azure,
        topo::CloudProvider::Gcp}) {
    analysis::OptimizerConfig cfg;
    cfg.set_size = 6;
    cfg.max_failures = 2;
    cfg.candidates = testbed.perspectives_of(provider);
    cfg.strategy = analysis::SearchStrategy::Beam;
    cfg.beam_width = 48;
    cfg.name_prefix = std::string(topo::to_string_view(provider));
    cfg.metrics = metrics;
    cfg.profiler = profiler;
    const auto best = optimizer.best(cfg);
    const auto s = plain.evaluate(best.spec);
    table.add_row({std::string(topo::to_string_view(provider)), "(6, N-2)",
                   analysis::format_resilience(s.median),
                   analysis::format_resilience(s.average),
                   analysis::format_resilience(s.p25)});
  }

  // 3c. Production systems.
  for (const auto& spec : {core::lets_encrypt_spec(testbed),
                           core::cloudflare_spec(testbed)}) {
    const auto s = plain.evaluate(spec);
    table.add_row({spec.name, spec.config_string(),
                   analysis::format_resilience(s.median),
                   analysis::format_resilience(s.average),
                   analysis::format_resilience(s.p25)});
  }
  manifest.add_phase("analysis", phase.seconds());

  std::printf("\nResilience without RPKI (fraction of adversaries defeated):\n%s",
              table.to_string().c_str());

  obs::CpuProfile cpu_profile;
  if (profiler != nullptr) {
    cpu_profile = obs::symbolize_profile(profiler->drain());
    if (cpu_profile.available && cpu_profile.samples > 0) {
      manifest.set_profile(cpu_profile);
      std::printf("\nCPU profile: %llu samples @ %u Hz (%llu dropped, "
                  "%llu truncated), hottest: %s\n",
                  static_cast<unsigned long long>(cpu_profile.samples),
                  profiler->hz(),
                  static_cast<unsigned long long>(cpu_profile.dropped),
                  static_cast<unsigned long long>(cpu_profile.truncated),
                  cpu_profile.symbols.empty()
                      ? "(none)"
                      : cpu_profile.symbols.front().name.c_str());
    }
  }

  // Stop telemetry before any artifact is written: the final tick must be
  // on disk before the trace-bundle self-check reads timeseries.ndjson
  // back, and no tick may bump campaign.stalls while the manifest is
  // written.
  if (hub != nullptr) hub->stop();

  if (!metrics_out.empty()) {
    manifest.set("tie_break", "hashed");
    manifest.set("tie_break_seed", std::uint64_t{0xCAFE});
    manifest.set("sites", testbed.sites().size());
    manifest.set("perspectives", testbed.perspectives().size());
    manifest.set("ases", testbed.internet().graph().size());
    manifest.set("orchestrated_pairs", orch_cfg.pairs.size());
    if (!manifest.write_file(metrics_out, registry.snapshot())) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("\nRun manifest written to %s\n", metrics_out.c_str());
  }
  if (recorder != nullptr) {
    const obs::FlightJournal journal = recorder->drain();
    const bool with_profile =
        cpu_profile.available && cpu_profile.samples > 0;
    if (!obs::write_trace_dir(trace_out, journal,
                              with_profile ? &cpu_profile : nullptr)) {
      std::fprintf(stderr, "failed to write trace bundle to %s\n",
                   trace_out.c_str());
      return 1;
    }
    std::printf(
        "\nTrace bundle written to %s (trace.json, journal.ndjson%s): "
        "%zu task spans, %zu verdicts (%zu "
        "adversary-routed)\n",
        trace_out.c_str(), with_profile ? ", profile.folded" : "",
        journal.task_count(), journal.verdict_count(),
        journal.adversary_verdict_count());
    // Self-check: a bundle this process cannot read back (or whose
    // journal disagrees with the manifest counters) is a bug, not a
    // warning.
    const obs::BundleCheckResult check =
        obs::check_trace_bundle(trace_out, metrics_out);
    if (!check.ok) {
      for (const std::string& problem : check.problems) {
        std::fprintf(stderr, "trace bundle self-check: %s\n",
                     problem.c_str());
      }
      return 1;
    }
  }
  return 0;
}
