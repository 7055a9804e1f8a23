#include "obs/journal_reader.hpp"

#include <algorithm>
#include <unordered_map>

namespace marcopolo::obs {

namespace {

/// Lane lookup/creation while reading: records arrive grouped by worker
/// in writer output, but the reader tolerates any interleaving.
class LaneIndex {
 public:
  explicit LaneIndex(FlightJournal& journal) : journal_(journal) {}

  FlightJournal::WorkerLane& lane(std::uint32_t worker) {
    const auto it = index_.find(worker);
    if (it != index_.end()) return journal_.workers[it->second];
    index_.emplace(worker, journal_.workers.size());
    journal_.workers.emplace_back();
    journal_.workers.back().worker = worker;
    return journal_.workers.back();
  }

 private:
  FlightJournal& journal_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
};

bool decode_outcome(const std::string& name, std::uint8_t& outcome) {
  if (name == "none") outcome = 0;
  else if (name == "victim") outcome = 1;
  else if (name == "adversary") outcome = 2;
  else return false;
  return true;
}

void decode_meta(const json::Value& rec, ReadJournal& out,
                 std::size_t line_no) {
  out.has_meta = true;
  out.schema = static_cast<int>(rec.u64_or("journal_schema", 0));
  if (out.schema != 1) {
    out.errors.push_back(
        {line_no, "unsupported journal_schema " + std::to_string(out.schema)});
  }
  out.journal.epoch_ns = rec.u64_or("epoch_ns", 0);
  out.meta_workers = rec.u64_or("workers", 0);
  out.meta_tasks = rec.u64_or("tasks", 0);
  out.meta_verdicts = rec.u64_or("verdicts", 0);
  out.meta_adversary_verdicts = rec.u64_or("adversary_verdicts", 0);
}

void decode_task(const json::Value& rec, LaneIndex& lanes) {
  TaskSpanRecord t;
  t.announcer = static_cast<std::uint32_t>(rec.u64_or("announcer", 0));
  t.adversary = static_cast<std::uint32_t>(rec.u64_or("adversary", 0));
  t.victim_rows = static_cast<std::uint32_t>(rec.u64_or("victim_rows", 0));
  t.total_capture = rec.bool_or("total_capture", false);
  t.start_ns = rec.u64_or("start_ns", 0);
  t.duration_ns = rec.u64_or("duration_ns", 0);
  t.propagate_ns = rec.u64_or("propagate_ns", 0);
  t.classify_ns = rec.u64_or("classify_ns", 0);
  t.record_ns = rec.u64_or("record_ns", 0);
  t.instructions = rec.u64_or("instructions", 0);
  t.cycles = rec.u64_or("cycles", 0);
  // Absent in pre-multi-attack journals: 0 = equally-specific.
  t.attack = static_cast<std::uint8_t>(rec.u64_or("attack", 0));
  lanes.lane(static_cast<std::uint32_t>(rec.u64_or("worker", 0)))
      .tasks.push_back(t);
}

void decode_propagation(const json::Value& rec, LaneIndex& lanes) {
  PropagationRunRecord p;
  p.start_ns = rec.u64_or("start_ns", 0);
  p.duration_ns = rec.u64_or("duration_ns", 0);
  p.delivered = rec.u64_or("delivered", 0);
  p.loop_dropped = rec.u64_or("loop_dropped", 0);
  p.rov_dropped = rec.u64_or("rov_dropped", 0);
  if (const json::Value* decided = rec.find("decided");
      decided != nullptr && decided->is_object()) {
    static constexpr const char* kSteps[5] = {
        "local_pref", "path_length", "route_age", "neighbor_asn",
        "ingress_pop"};
    for (std::size_t s = 0; s < p.decided.size(); ++s) {
      p.decided[s] = decided->u64_or(kSteps[s], 0);
    }
  }
  lanes.lane(static_cast<std::uint32_t>(rec.u64_or("worker", 0)))
      .propagations.push_back(p);
}

bool decode_verdict(const json::Value& rec, LaneIndex& lanes,
                    std::string& why) {
  VerdictRecord v;
  v.victim = static_cast<std::uint16_t>(rec.u64_or("victim", 0));
  v.adversary = static_cast<std::uint16_t>(rec.u64_or("adversary", 0));
  v.perspective = static_cast<std::uint16_t>(rec.u64_or("perspective", 0));
  // Absent in pre-multi-attack journals: 0 = equally-specific.
  v.attack = static_cast<std::uint8_t>(rec.u64_or("attack", 0));
  const std::string outcome = rec.string_or("outcome", "none");
  if (!decode_outcome(outcome, v.outcome)) {
    why = "unknown outcome \"" + outcome + "\"";
    return false;
  }
  const std::string decided_by = rec.string_or("decided_by", "unopposed");
  if (!verdict_step_from_string(decided_by, v.decided_by)) {
    why = "unknown decided_by \"" + decided_by + "\"";
    return false;
  }
  v.contested = rec.bool_or("contested", false);
  lanes.lane(static_cast<std::uint32_t>(rec.u64_or("worker", 0)))
      .verdicts.push_back(v);
  return true;
}

void decode_attack(const json::Value& rec, FlightJournal& journal) {
  AttackSpanRecord a;
  a.lane = static_cast<std::uint32_t>(rec.u64_or("lane", 0));
  a.victim = static_cast<std::uint16_t>(rec.u64_or("victim", 0));
  a.adversary = static_cast<std::uint16_t>(rec.u64_or("adversary", 0));
  a.attempt = static_cast<std::uint8_t>(rec.u64_or("attempt", 0));
  a.complete = rec.bool_or("complete", false);
  a.announce_us = rec.u64_or("announce_us", 0);
  a.dcv_us = rec.u64_or("dcv_us", 0);
  a.conclude_us = rec.u64_or("conclude_us", 0);
  journal.attacks.push_back(a);
}

void decode_quorum(const json::Value& rec, ReadJournal& out) {
  ReadQuorumRecord q;
  q.system = rec.string_or("system", "");
  q.lane = static_cast<std::uint32_t>(rec.u64_or("lane", 0));
  q.victim = static_cast<std::uint16_t>(rec.u64_or("victim", 0));
  q.adversary = static_cast<std::uint16_t>(rec.u64_or("adversary", 0));
  q.corroborated = rec.bool_or("corroborated", false);
  q.virtual_us = rec.u64_or("virtual_us", 0);
  out.quorums.push_back(q);
}

}  // namespace

ReadJournal JournalReader::read(std::istream& in) {
  ReadJournal out;
  LaneIndex lanes(out.journal);
  json::read_ndjson(in, out, [&](const std::string& kind,
                                 const json::Value& rec,
                                 std::size_t line_no) {
    if (kind == "meta") {
      decode_meta(rec, out, line_no);
    } else if (kind == "task") {
      decode_task(rec, lanes);
    } else if (kind == "propagation") {
      decode_propagation(rec, lanes);
    } else if (kind == "verdict") {
      std::string why;
      if (!decode_verdict(rec, lanes, why)) {
        out.errors.push_back({line_no, why});
      }
    } else if (kind == "attack") {
      decode_attack(rec, out.journal);
    } else if (kind == "quorum") {
      decode_quorum(rec, out);
    } else {
      return false;  // a newer writer's record type
    }
    return true;
  });
  std::sort(out.journal.workers.begin(), out.journal.workers.end(),
            [](const auto& a, const auto& b) { return a.worker < b.worker; });
  if (!out.has_meta && out.lines > 0) {
    out.errors.push_back({1, "missing meta header line"});
  }
  if (out.journal.epoch_ns == 0) {
    // Meta-less or zero-epoch journal: recompute like drain() does.
    std::uint64_t epoch = ~std::uint64_t{0};
    for (const auto& lane : out.journal.workers) {
      for (const TaskSpanRecord& t : lane.tasks) {
        epoch = std::min(epoch, t.start_ns);
      }
      for (const PropagationRunRecord& p : lane.propagations) {
        epoch = std::min(epoch, p.start_ns);
      }
    }
    out.journal.epoch_ns = epoch == ~std::uint64_t{0} ? 0 : epoch;
  }
  return out;
}

ReadJournal JournalReader::read_file(const std::string& path) {
  return json::read_ndjson_file(path, &JournalReader::read);
}

}  // namespace marcopolo::obs
