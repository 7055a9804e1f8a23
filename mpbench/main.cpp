// mpbench: the MarcoPolo repository benchmark.
//
//   mpbench --workload <paper_tables|multi_attack_50k|defense_matrix>
//           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//           [--threads <n>] [--spans-out <file>]
//
// --trace 0 repeats the workload's pipeline for --seconds and reports the
// end-to-end metrics; --trace 1 runs it once untraced, then replays every
// layer serially under spans and reports the per-layer metrics. Either way
// the outputs are checked, and the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Progress and
// digests go to standard error. NOTES.md describes every metric.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mpbench --workload <paper_tables|multi_attack_50k|"
               "defense_matrix> [--seed <n>] [--seconds <s>] [--trace <0|1>] "
               "[--threads <n>] [--spans-out <file>]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

void print_result(const mpbench::Report& report) {
  const std::uint64_t failed = std::min(report.failed, report.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              failed == 0 && report.attempted > 0 ? "true" : "false",
              report.attempted, failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  mpbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && parse_u64(value, n)) {
      options.seed = n;
    } else if (std::strcmp(flag, "--seconds") == 0 && parse_u64(value, n) &&
               n <= 3600) {
      options.seconds = static_cast<double>(n);
    } else if (std::strcmp(flag, "--trace") == 0 && parse_u64(value, n) &&
               n <= 1) {
      options.trace = n == 1;
    } else if (std::strcmp(flag, "--threads") == 0 && parse_u64(value, n) &&
               n <= 64) {
      options.threads = static_cast<std::size_t>(n);
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      options.spans_out = value;
    } else {
      return usage();
    }
  }
  if (!mpbench::known_workload(options.workload)) return usage();

  mpbench::Report report;
  try {
    mpbench::run_workload(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  print_result(report);
  return 0;
}
