// Export a drained FlightJournal in standard formats:
//
//   - Chrome trace_event JSON: loads in Perfetto (ui.perfetto.dev) or
//     chrome://tracing. Wall-clock records appear under process 1
//     ("fast_campaign workers"), one lane per worker thread, propagation
//     spans nested inside their task spans. Orchestrator records appear
//     under process 2 ("orchestrator, virtual time"), one lane per
//     prefix lane, with attack attempts split into propagation-wait and
//     DCV-fan-out slices and quorum decisions as instant events.
//   - NDJSON journal: one self-describing JSON object per line
//     (`{"type": "task" | "propagation" | "verdict" | "attack" |
//     "quorum", ...}`), greppable and trivially parseable line-wise.
//     Verdict lines carry the decision provenance (`decided_by`,
//     `contested`, `route_age_sensitive`).
//   - Prometheus text exposition format for a MetricsSnapshot
//     (`# TYPE` / `# HELP`, cumulative histogram buckets): the body the
//     live `/metrics` endpoint serves. It is not part of the bundle;
//     counter totals live in the run manifest only.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/symbolize.hpp"

namespace marcopolo::obs {

/// Chrome trace_event JSON ("traceEvents" array form). When `profile` is
/// non-null, available, and non-empty, the output also carries the
/// legacy sampling sections Perfetto imports — a "stackFrames" dict plus
/// a "samples" array under process 3 ("cpu profiler") — so flame data
/// lands on the same timeline as the worker spans. A null, unavailable,
/// or empty profile leaves the output byte-identical to the two-argument
/// form.
void write_chrome_trace(std::ostream& out, const FlightJournal& journal,
                        const CpuProfile* profile = nullptr);

/// flamegraph.pl collapsed format: one "frame;frame;frame count" line
/// per unique stack, root-first, sorted by stack string.
void write_folded_profile(std::ostream& out, const CpuProfile& profile);

/// Newline-delimited JSON, one record per line, ordered: a `meta` line,
/// then tasks/propagations/verdicts per worker lane, then virtual-time
/// attacks and quorum decisions.
void write_journal_ndjson(std::ostream& out, const FlightJournal& journal);

/// Prometheus text exposition format. Metric names are prefixed with
/// `marcopolo_` and sanitized ('.' and other invalid characters become
/// '_'); histograms emit cumulative `_bucket{le="..."}` series plus
/// `_sum` and `_count` as the protocol requires.
void write_prometheus_text(std::ostream& out, const MetricsSnapshot& snapshot);

/// Write the standard trace bundle into directory `dir` (created if
/// missing): trace.json (Chrome trace) and journal.ndjson. A non-null,
/// available, non-empty `profile` additionally writes profile.folded and
/// merges sample events into trace.json; otherwise the bundle is
/// byte-identical to a profile-less call (the pure-observer contract).
/// Counter totals are not written here; they live in the run manifest.
/// Returns false on
/// any I/O failure (after attempting all files). Each file is written to
/// `<name>.tmp` and renamed into place, so a crashed or interrupted run
/// never leaves a truncated file at the final name.
[[nodiscard]] bool write_trace_dir(const std::string& dir,
                                   const FlightJournal& journal,
                                   const CpuProfile* profile = nullptr);

}  // namespace marcopolo::obs
