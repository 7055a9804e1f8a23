// JournalReader: parse a journal.ndjson written by write_journal_ndjson
// back into FlightJournal-shaped data.
//
// The journal is the recorded run's ground truth — per-task spans,
// per-verdict decision provenance, virtual-time attack spans — and this
// reader closes the loop: `mpinspect` and the run-compare layer
// interrogate recorded runs instead of re-running them, the same way the
// paper's analysis sections (§5–§7) work from the recorded hijack corpus.
//
// Schema policy (journal_schema 1, forward-compatible reads):
//   - Records whose "type" is unknown are counted and skipped, never an
//     error — a newer writer may add record types.
//   - Unknown fields inside a known record are ignored; missing fields
//     default to zero-values. Only a structurally broken line (not a
//     JSON object, no "type", malformed number/string) is an error.
//   - Every error carries its 1-based line number, so a truncated file
//     (the classic interrupted-run artifact) is reported as "line N:
//     unexpected end" rather than a silent partial read.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace marcopolo::obs {

/// One problem found while reading, anchored to its journal line.
using JournalIssue = json::LineIssue;

/// QuorumRecord with an owned system name (the in-memory record borrows
/// static storage, which a reader cannot reproduce).
struct ReadQuorumRecord {
  std::string system;
  std::uint32_t lane = 0;
  std::uint16_t victim = 0;
  std::uint16_t adversary = 0;
  bool corroborated = false;
  std::uint64_t virtual_us = 0;
};

/// Everything read back from one journal.ndjson (errors, skipped
/// records and the line count come from json::NdjsonRead).
struct ReadJournal : json::NdjsonRead {
  /// From the meta header line (schema stays 0 when no meta line seen).
  int schema = 0;
  bool has_meta = false;
  std::uint64_t meta_workers = 0;
  std::uint64_t meta_tasks = 0;
  std::uint64_t meta_verdicts = 0;
  std::uint64_t meta_adversary_verdicts = 0;

  /// Reconstructed records, grouped into worker lanes exactly like the
  /// in-memory journal (lanes sorted by worker id; quorums live in
  /// `quorums` below because of the owned-string difference).
  FlightJournal journal;
  std::vector<ReadQuorumRecord> quorums;
};

/// Parses journal.ndjson streams. Stateless; the static methods are the
/// whole interface.
class JournalReader {
 public:
  [[nodiscard]] static ReadJournal read(std::istream& in);
  /// read() on the file's contents; an unopenable path is reported as an
  /// error on line 0.
  [[nodiscard]] static ReadJournal read_file(const std::string& path);
};

}  // namespace marcopolo::obs
