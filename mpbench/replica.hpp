// The traced run's serial replica of the incremental campaign loop.
//
// run_fast_campaign hides its layers behind one call. The replica makes
// the same calls through the layers' public functions, one (victim,
// adversary, plane) attack at a time, with a span around each:
//   DeltaPropagation::set_victim_baseline  -> bgp.baseline
//   HijackScenario::reset_incremental      -> bgp.replay.<plane>
//   Testbed::perspective_outcome           -> cloud.classify.<plane>
//   ResultStore::record_unsynchronized     -> core.record
// and counts the work at the same boundaries. Its store must be
// byte-identical to run_fast_campaign's for the same config, which the
// workloads check: that is what shows the trace measured the same work.
#pragma once

#include <array>
#include <cstdint>

#include "bgp/scenario.hpp"
#include "marcopolo/fast_campaign.hpp"
#include "trace.hpp"

namespace mpbench {

inline constexpr std::size_t kPlanes = marcopolo::bgp::kAttackTypeCount;

/// Work counted by the replica, summed over every campaign it runs.
struct CampaignCounts {
  std::uint64_t baselines = 0;
  std::array<std::uint64_t, kPlanes> replays{};
  /// Nodes re-decided by the eager C' sweep, and how many of those changed
  /// their export (the useful fraction of the sweep).
  std::array<std::uint64_t, kPlanes> up_nodes{};
  std::array<std::uint64_t, kPlanes> up_changed{};
  /// Nodes whose D' was evaluated lazily while perspectives were
  /// classified (DeltaPropagation::stats() read after classification).
  std::array<std::uint64_t, kPlanes> down_nodes{};
  std::uint64_t verdicts = 0;
  /// (victim, adversary, plane) rows written, one outcome per perspective.
  std::uint64_t rows_recorded = 0;
};

/// Runs `config`'s campaign serially under `tracer` (one "core.campaign"
/// span holding every layer span) and returns its store. `metrics`, when
/// set, receives the propagation engine's counters.
[[nodiscard]] marcopolo::core::ResultStore traced_campaign(
    const marcopolo::core::Testbed& testbed,
    const marcopolo::core::FastCampaignConfig& config, Tracer& tracer,
    CampaignCounts& counts,
    const marcopolo::bgp::PropagationMetrics* metrics);

}  // namespace mpbench
