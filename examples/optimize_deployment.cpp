// Example: compute optimized MPIC perspective sets for a CA.
//
// This is the workflow the paper ran for Google Trust Services and the
// Open MPIC project (§1, §5.1): given a cloud provider preference and a
// perspective count, produce the CA/Browser-Forum-compliant deployments
// ranked by resilience, including the recommended primary perspective.
//
// Usage: optimize_deployment [provider] [count] [--attacks <csv|all>]
//                            [--metrics-out <file.json>]
//                            [--trace-out <dir>] [--progress]
//                            [--profile[=hz]] [--telemetry-out <dir|file>]
//                            [--serve-metrics <port>] [--tick-ms <n>]
//   provider: aws | gcp | azure   (default azure)
//   count:    5..8                (default 6)
//
// With --attacks the campaign sweeps every listed attack type (one store
// plane each) and the optimizer scores deployments against the worst
// case: a perspective counts as hijacked for a pair when ANY listed
// attack captures it, so the ranked sets are robust to the adversary's
// choice of attack, not just to equally-specific hijacks.
//
// With --metrics-out the campaign and optimizer are instrumented and a
// RunManifest (config echo, phases, counters, latency histograms) is
// written at exit. With --trace-out the campaign runs under a flight
// recorder and a trace bundle (Chrome trace, NDJSON provenance journal)
// is written into <dir>; --progress draws a live
// stderr line at every telemetry tick (--tick-ms, default 1s) and a
// summary line when the work drains. --profile samples campaign and
// exhaustive-search worker CPU (default 997 Hz), adding hot symbols to
// the manifest and profile.folded to the trace bundle. --telemetry-out /
// --serve-metrics attach a live obs::TelemetryHub (NDJSON time-series
// every --tick-ms, /metrics + /healthz + /snapshot.json on
// 127.0.0.1:<port>); watch with `mpinspect watch`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/optimizer.hpp"
#include "analysis/report.hpp"
#include "analysis/rir_cluster.hpp"
#include "bgp/attack_model.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "obs/symbolize.hpp"
#include "obs/telemetry_hub.hpp"
#include "obs/timer.hpp"
#include "obs/trace_export.hpp"

using namespace marcopolo;

namespace {

topo::CloudProvider parse_provider(const char* text) {
  if (std::strcmp(text, "aws") == 0) return topo::CloudProvider::Aws;
  if (std::strcmp(text, "gcp") == 0) return topo::CloudProvider::Gcp;
  if (std::strcmp(text, "azure") == 0) return topo::CloudProvider::Azure;
  std::fprintf(stderr, "unknown provider '%s' (aws|gcp|azure)\n", text);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  bool progress = false;
  bool profile = false;
  std::uint32_t profile_hz = obs::kDefaultProfileHz;
  std::string telemetry_out;
  int serve_port = -1;
  int tick_ms = 1000;
  std::vector<bgp::AttackType> attacks;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--attacks") == 0 && i + 1 < argc) {
      try {
        attacks = bgp::parse_attack_list(argv[++i]);
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
      positional.push_back(argv[i]);
    }
  }
  const topo::CloudProvider provider = !positional.empty()
                                           ? parse_provider(positional[0])
                                           : topo::CloudProvider::Azure;
  const std::size_t count =
      positional.size() > 1
          ? static_cast<std::size_t>(std::atoi(positional[1]))
          : 6;
  if (count < 2 || count > 12) {
    std::fprintf(stderr, "count must be in [2, 12]\n");
    return 2;
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
        std::fprintf(stderr, "telemetry: endpoint unavailable (%s)\n",
                     hub->serve_reason().c_str());
      }
    }
  }
  obs::RunManifest manifest("optimize_deployment");

  obs::PhaseClock phase;
  core::Testbed testbed{core::TestbedConfig{}};
  manifest.add_phase("build_testbed", phase.seconds());
  std::printf("Running MarcoPolo campaign (%zu pairwise hijacks)...\n",
              testbed.sites().size() * (testbed.sites().size() - 1));
  phase.restart();
  core::FastCampaignConfig campaign_cfg;
  campaign_cfg.metrics = metrics;
  campaign_cfg.recorder = recorder;
  campaign_cfg.profiler = profiler;
  campaign_cfg.telemetry = hub;
  campaign_cfg.attacks = attacks;
  auto store = core::run_fast_campaign(testbed, campaign_cfg);
  manifest.add_phase("fast_campaign", phase.seconds());
  if (store.num_attacks() > 1) {
    // Fold the planes to the adversary's best case: any attack that
    // captures a perspective marks it hijacked in the store the
    // optimizer scores against.
    core::ResultStore folded = store.extract_attack(0);
    const auto n = static_cast<core::SiteIndex>(store.num_sites());
    for (core::SiteIndex v = 0; v < n; ++v) {
      for (core::SiteIndex a = 0; a < n; ++a) {
        if (v == a) continue;
        for (const auto& rec : testbed.perspectives()) {
          for (std::size_t ai = 1; ai < store.num_attacks(); ++ai) {
            if (store.hijacked(ai, v, a, rec.index)) {
              folded.record(v, a, rec.index, bgp::OriginReached::Adversary);
              break;
            }
          }
        }
      }
    }
    std::printf("Scoring against worst case over %zu attack types\n",
                store.num_attacks());
    store = std::move(folded);
  }
  analysis::ResilienceAnalyzer analyzer(store);
  analysis::DeploymentOptimizer optimizer(analyzer);

  // CA/Browser Forum minimum quorum for this perspective count.
  const auto policy = mpic::QuorumPolicy::cab_minimum(count);
  std::printf("Optimizing %s deployments with policy %s "
              "(CA/B-compliant: %s)\n",
              std::string(topo::to_string_view(provider)).c_str(),
              policy.to_string().c_str(),
              policy.cab_compliant() ? "yes" : "no");

  analysis::OptimizerConfig cfg;
  cfg.set_size = count;
  cfg.max_failures = policy.max_failures;
  cfg.with_primary = true;
  cfg.candidates = testbed.perspectives_of(provider);
  cfg.top_k = 10;
  cfg.strategy = count <= 6 ? analysis::SearchStrategy::Exhaustive
                            : analysis::SearchStrategy::Beam;
  cfg.name_prefix = std::string(topo::to_string_view(provider));
  cfg.metrics = metrics;
  cfg.profiler = profiler;

  phase.restart();
  const auto ranked = optimizer.optimize(cfg);
  manifest.add_phase("optimize", phase.seconds());

  analysis::TextTable table({"Rank", "Median", "Average", "Primary",
                             "Remote perspectives", "RIR shape"});
  std::vector<topo::Rir> rirs;
  for (const auto& rec : testbed.perspectives()) rirs.push_back(rec.rir);

  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& rd = ranked[i];
    std::string remotes;
    for (const auto p : rd.spec.remotes) {
      if (!remotes.empty()) remotes += ", ";
      remotes += std::string(testbed.perspectives()[p].region_name);
    }
    const auto sig = analysis::cluster_signature(rd.spec, rirs);
    table.add_row(
        {std::to_string(i + 1), analysis::format_resilience(rd.score.median),
         analysis::format_resilience(rd.score.average),
         std::string(testbed.perspectives()[*rd.spec.primary].region_name),
         remotes, analysis::format_signature(sig, true)});
  }
  std::printf("\nTop deployments (primary must succeed; quorum %zu of %zu "
              "remotes):\n%s",
              policy.required(), count, table.to_string().c_str());

  const auto stats = analysis::analyze_clusters(ranked, rirs,
                                                policy.max_failures);
  std::printf("\nRIR clustering among these: %s at %s "
              "(paper §5.3 predicts clusters of Y+1 = %zu)\n",
              stats.top_signature.c_str(),
              analysis::format_share(stats.top_share).c_str(),
              policy.max_failures + 1);

  obs::CpuProfile cpu_profile;
  if (profiler != nullptr) {
    cpu_profile = obs::symbolize_profile(profiler->drain());
    if (cpu_profile.available && cpu_profile.samples > 0) {
      manifest.set_profile(cpu_profile);
      std::printf("\nCPU profile: %llu samples @ %u Hz, hottest: %s\n",
                  static_cast<unsigned long long>(cpu_profile.samples),
                  profiler->hz(),
                  cpu_profile.symbols.empty()
                      ? "(none)"
                      : cpu_profile.symbols.front().name.c_str());
    }
  }

  // Stop telemetry before artifacts are written so the final tick is on
  // disk and no tick can bump campaign.stalls while the manifest is
  // written.
  if (hub != nullptr) hub->stop();

  if (!metrics_out.empty()) {
    manifest.set("provider", std::string(topo::to_string_view(provider)));
    manifest.set("set_size", count);
    manifest.set("max_failures", policy.max_failures);
    manifest.set("strategy",
                 cfg.strategy == analysis::SearchStrategy::Exhaustive
                     ? "exhaustive"
                     : "beam");
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
    std::printf("\nTrace bundle written to %s (%zu task spans, %zu verdicts)\n",
                trace_out.c_str(), journal.task_count(),
                journal.verdict_count());
  }
  return 0;
}
