// The benchmark's three workloads (see NOTES.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "report.hpp"

namespace mpbench {

/// The seed whose inputs are the canonical ones (Internet seed 42,
/// tie-break seed 0xCAFE) and whose outputs are pinned.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// How long the untraced run repeats the workload's pipeline.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Campaign worker threads; 0 = the workload's fixed count.
  std::size_t threads = 0;
  /// Traced run: file the spans are written to (empty = not written).
  std::string spans_out;
};

[[nodiscard]] bool known_workload(std::string_view name);

/// Runs one workload and fills `report`. Throws if the pipeline itself
/// fails; output checks that fail are counted in report.failed instead.
void run_workload(const Options& options, Report& report);

}  // namespace mpbench
