#include "obs/trace_export.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>

#include "obs/json.hpp"

namespace marcopolo::obs {

namespace {

constexpr int kWallPid = 1;     ///< Wall-clock worker lanes.
constexpr int kVirtualPid = 2;  ///< Orchestrator virtual-time lanes.
constexpr int kProfilePid = 3;  ///< CPU-profiler sample lanes.
/// Profiled threads are not the same ids as worker lanes; offset their
/// tids so the flat tid namespace of the legacy "samples" array cannot
/// collide with pid-1 workers.
constexpr int kProfileTidBase = 1000;

/// Sample sections are emitted only for a real profile; null, probe-failed,
/// or empty profiles leave trace.json byte-identical (pure observer).
bool has_profile_data(const CpuProfile* profile) {
  return profile != nullptr && profile->available && profile->samples > 0;
}

/// Microsecond timestamp (3 decimals keeps nanosecond precision) for the
/// Chrome trace, relative to the journal epoch.
void write_wall_ts(std::ostream& out, std::uint64_t ns, std::uint64_t epoch) {
  const std::uint64_t rel = ns >= epoch ? ns - epoch : 0;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(rel / 1000),
                static_cast<unsigned long long>(rel % 1000));
  out << buf;
}

void write_duration_us(std::ostream& out, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

class EventList {
 public:
  explicit EventList(std::ostream& out) : out_(out) {}

  /// Start one event object; the caller streams the fields and calls
  /// close(). Handles the comma discipline of the surrounding array.
  std::ostream& open() {
    out_ << (first_ ? "\n  {" : ",\n  {");
    first_ = false;
    return out_;
  }
  void close() { out_ << "}"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void metadata_event(EventList& events, int pid, int tid, const char* kind,
                    const std::string& name) {
  events.open() << "\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
                << ", \"name\": \"" << kind << "\", \"args\": {\"name\": \""
                << json_escape(name) << "\"}";
  events.close();
}

const char* outcome_name(std::uint8_t outcome) {
  switch (outcome) {
    case 0: return "none";
    case 1: return "victim";
    case 2: return "adversary";
  }
  return "?";
}

/// Prometheus metric name: `marcopolo_` + name with every character
/// outside [a-zA-Z0-9_:] replaced by '_'.
std::string prometheus_name(std::string_view name) {
  std::string out = "marcopolo_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

namespace {

/// Build the legacy "stackFrames" trie from the folded stacks and emit
/// it plus the "samples" array. Frame ids are allocated in first-visit
/// order walking the (sorted) stacks root-first, so output is
/// deterministic. Returns nothing; writes both top-level sections
/// (caller supplies the separating commas).
void write_sample_sections(std::ostream& out, const CpuProfile& profile,
                           std::uint64_t epoch_ns) {
  struct Frame {
    std::string name;
    std::uint32_t parent;  // 0 = root (no parent); ids are 1-based
  };
  std::vector<Frame> frames;
  // (parent id, frame name) -> frame id
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> interned;
  std::vector<std::uint32_t> leaf_of(profile.stacks.size(), 0);

  for (std::size_t s = 0; s < profile.stacks.size(); ++s) {
    const std::string& line = profile.stacks[s].stack;
    std::uint32_t parent = 0;
    std::size_t begin = 0;
    while (begin <= line.size()) {
      std::size_t end = line.find(';', begin);
      if (end == std::string::npos) end = line.size();
      std::string name = line.substr(begin, end - begin);
      auto [it, fresh] = interned.try_emplace(
          {parent, name}, static_cast<std::uint32_t>(frames.size() + 1));
      if (fresh) frames.push_back(Frame{std::move(name), parent});
      parent = it->second;
      if (end == line.size()) break;
      begin = end + 1;
    }
    leaf_of[s] = parent;
  }

  out << "\"stackFrames\": {";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << "\"" << (i + 1)
        << "\": {\"name\": \"" << json_escape(frames[i].name)
        << "\", \"category\": \"cpu\"";
    if (frames[i].parent != 0) {
      out << ", \"parent\": \"" << frames[i].parent << "\"";
    }
    out << "}";
  }
  out << "\n},\n\"samples\": [";
  bool first = true;
  for (const SampleEvent& e : profile.events) {
    out << (first ? "\n  {" : ",\n  {");
    first = false;
    out << "\"cpu\": 0, \"tid\": " << (kProfileTidBase + e.thread_id)
        << ", \"ts\": ";
    write_wall_ts(out, e.ns, epoch_ns);
    out << ", \"name\": \"cpu_sample\", \"sf\": " << leaf_of[e.stack]
        << ", \"weight\": 1}";
  }
  out << "\n]";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const FlightJournal& journal,
                        const CpuProfile* profile) {
  const bool with_samples = has_profile_data(profile);
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  EventList events(out);

  if (with_samples) {
    metadata_event(events, kProfilePid, 0, "process_name",
                   "cpu profiler (" + std::to_string(profile->hz) + " Hz)");
    std::uint32_t last_tid = ~0u;
    for (const SampleEvent& e : profile->events) {
      if (e.thread_id == last_tid) continue;
      last_tid = e.thread_id;
      metadata_event(events, kProfilePid,
                     kProfileTidBase + static_cast<int>(e.thread_id),
                     "thread_name",
                     "profiled thread " + std::to_string(e.thread_id));
    }
  }
  if (!journal.workers.empty()) {
    metadata_event(events, kWallPid, 0, "process_name",
                   "fast_campaign workers (wall clock)");
    for (const auto& lane : journal.workers) {
      metadata_event(events, kWallPid, static_cast<int>(lane.worker),
                     "thread_name",
                     "worker " + std::to_string(lane.worker));
    }
  }
  if (!journal.attacks.empty() || !journal.quorums.empty()) {
    metadata_event(events, kVirtualPid, 0, "process_name",
                   "orchestrator (virtual time)");
  }

  for (const auto& lane : journal.workers) {
    const int tid = static_cast<int>(lane.worker);
    for (const TaskSpanRecord& t : lane.tasks) {
      events.open() << "\"ph\": \"X\", \"pid\": " << kWallPid
                    << ", \"tid\": " << tid << ", \"name\": \""
                    << (t.total_capture ? "capture " : "task ") << t.announcer
                    << "\\u2192" << t.adversary << "\", \"ts\": ";
      write_wall_ts(out, t.start_ns, journal.epoch_ns);
      out << ", \"dur\": ";
      write_duration_us(out, t.duration_ns);
      out << ", \"args\": {\"announcer\": " << t.announcer
          << ", \"adversary\": " << t.adversary
          << ", \"victim_rows\": " << t.victim_rows
          << ", \"propagate_ns\": " << t.propagate_ns
          << ", \"classify_ns\": " << t.classify_ns
          << ", \"record_ns\": " << t.record_ns;
      if (t.attack != 0) {
        out << ", \"attack\": " << static_cast<int>(t.attack);
      }
      if (t.instructions != 0) {
        // Counter args only when the worker had a perf group: traces
        // from counter-less runs stay byte-identical.
        out << ", \"instructions\": " << t.instructions
            << ", \"cycles\": " << t.cycles;
        if (t.cycles != 0) {
          char ipc[32];
          std::snprintf(ipc, sizeof ipc, "%.3f",
                        static_cast<double>(t.instructions) /
                            static_cast<double>(t.cycles));
          out << ", \"ipc\": " << ipc;
        }
      }
      out << "}";
      events.close();
    }
    for (const PropagationRunRecord& p : lane.propagations) {
      events.open() << "\"ph\": \"X\", \"pid\": " << kWallPid
                    << ", \"tid\": " << tid
                    << ", \"name\": \"propagate\", \"ts\": ";
      write_wall_ts(out, p.start_ns, journal.epoch_ns);
      out << ", \"dur\": ";
      write_duration_us(out, p.duration_ns);
      out << ", \"args\": {\"delivered\": " << p.delivered
          << ", \"loop_dropped\": " << p.loop_dropped
          << ", \"rov_dropped\": " << p.rov_dropped
          << ", \"decided_route_age\": " << p.decided[2] << "}";
      events.close();
    }
  }

  for (const AttackSpanRecord& a : journal.attacks) {
    const int tid = static_cast<int>(a.lane);
    const std::uint64_t dur =
        a.conclude_us >= a.announce_us ? a.conclude_us - a.announce_us : 0;
    events.open() << "\"ph\": \"X\", \"pid\": " << kVirtualPid
                  << ", \"tid\": " << tid << ", \"name\": \"attack "
                  << a.victim << "\\u2192" << a.adversary << " #"
                  << static_cast<int>(a.attempt) << "\", \"ts\": "
                  << a.announce_us << ", \"dur\": " << dur
                  << ", \"args\": {\"victim\": " << a.victim
                  << ", \"adversary\": " << a.adversary
                  << ", \"attempt\": " << static_cast<int>(a.attempt)
                  << ", \"complete\": " << (a.complete ? "true" : "false")
                  << "}";
    events.close();
    if (a.dcv_us >= a.announce_us && a.conclude_us >= a.dcv_us) {
      events.open() << "\"ph\": \"X\", \"pid\": " << kVirtualPid
                    << ", \"tid\": " << tid
                    << ", \"name\": \"propagation_wait\", \"ts\": "
                    << a.announce_us
                    << ", \"dur\": " << a.dcv_us - a.announce_us << "";
      events.close();
      events.open() << "\"ph\": \"X\", \"pid\": " << kVirtualPid
                    << ", \"tid\": " << tid
                    << ", \"name\": \"dcv_fanout\", \"ts\": " << a.dcv_us
                    << ", \"dur\": " << a.conclude_us - a.dcv_us << "";
      events.close();
    }
  }

  for (const QuorumRecord& q : journal.quorums) {
    events.open() << "\"ph\": \"i\", \"s\": \"t\", \"pid\": " << kVirtualPid
                  << ", \"tid\": " << static_cast<int>(q.lane)
                  << ", \"name\": \"quorum " << json_escape(q.system) << " "
                  << (q.corroborated ? "pass" : "fail")
                  << "\", \"ts\": " << q.virtual_us
                  << ", \"args\": {\"victim\": " << q.victim
                  << ", \"adversary\": " << q.adversary
                  << ", \"corroborated\": "
                  << (q.corroborated ? "true" : "false") << "}";
    events.close();
  }

  if (with_samples) {
    // Samples need an epoch even when the journal is empty (profile-only
    // runs): fall back to the earliest sample.
    std::uint64_t epoch = journal.epoch_ns;
    if (epoch == 0) {
      for (const SampleEvent& e : profile->events) {
        if (epoch == 0 || e.ns < epoch) epoch = e.ns;
      }
    }
    out << "\n],\n";
    write_sample_sections(out, *profile, epoch);
    out << "\n}\n";
  } else {
    out << "\n]\n}\n";
  }
}

void write_folded_profile(std::ostream& out, const CpuProfile& profile) {
  for (const FoldedStack& s : profile.stacks) {
    out << s.stack << ' ' << s.count << '\n';
  }
}

void write_journal_ndjson(std::ostream& out, const FlightJournal& journal) {
  out << "{\"type\": \"meta\", \"journal_schema\": 1, \"epoch_ns\": "
      << journal.epoch_ns << ", \"workers\": " << journal.workers.size()
      << ", \"tasks\": " << journal.task_count()
      << ", \"verdicts\": " << journal.verdict_count()
      << ", \"adversary_verdicts\": " << journal.adversary_verdict_count()
      << "}\n";
  for (const auto& lane : journal.workers) {
    for (const TaskSpanRecord& t : lane.tasks) {
      out << "{\"type\": \"task\", \"worker\": " << lane.worker
          << ", \"announcer\": " << t.announcer
          << ", \"adversary\": " << t.adversary
          << ", \"victim_rows\": " << t.victim_rows
          << ", \"total_capture\": " << (t.total_capture ? "true" : "false")
          << ", \"start_ns\": " << t.start_ns
          << ", \"duration_ns\": " << t.duration_ns
          << ", \"propagate_ns\": " << t.propagate_ns
          << ", \"classify_ns\": " << t.classify_ns
          << ", \"record_ns\": " << t.record_ns;
      if (t.attack != 0) {
        // Attack-type tag (bgp::AttackType value), omitted for the
        // pre-multi-attack default so single-attack journals keep their
        // old bytes; readers default an absent tag to 0.
        out << ", \"attack\": " << static_cast<int>(t.attack);
      }
      if (t.instructions != 0) {
        // Forward-compatible addition (schema 1, unknown fields are
        // ignored by old readers); omitted when counters were off so
        // recorded output stays byte-identical.
        out << ", \"instructions\": " << t.instructions
            << ", \"cycles\": " << t.cycles;
      }
      out << "}\n";
    }
    for (const PropagationRunRecord& p : lane.propagations) {
      out << "{\"type\": \"propagation\", \"worker\": " << lane.worker
          << ", \"start_ns\": " << p.start_ns
          << ", \"duration_ns\": " << p.duration_ns
          << ", \"delivered\": " << p.delivered
          << ", \"loop_dropped\": " << p.loop_dropped
          << ", \"rov_dropped\": " << p.rov_dropped << ", \"decided\": {";
      static constexpr const char* kSteps[5] = {
          "local_pref", "path_length", "route_age", "neighbor_asn",
          "ingress_pop"};
      for (std::size_t s = 0; s < p.decided.size(); ++s) {
        out << (s == 0 ? "" : ", ") << "\"" << kSteps[s]
            << "\": " << p.decided[s];
      }
      out << "}}\n";
    }
    for (const VerdictRecord& v : lane.verdicts) {
      out << "{\"type\": \"verdict\", \"worker\": " << lane.worker
          << ", \"victim\": " << v.victim
          << ", \"adversary\": " << v.adversary
          << ", \"perspective\": " << v.perspective;
      if (v.attack != 0) {
        out << ", \"attack\": " << static_cast<int>(v.attack);
      }
      out << ", \"outcome\": \""
          << outcome_name(v.outcome) << "\", \"decided_by\": \""
          << to_cstring(v.decided_by) << "\", \"contested\": "
          << (v.contested ? "true" : "false")
          << ", \"route_age_sensitive\": "
          << (v.route_age_sensitive() ? "true" : "false") << "}\n";
    }
  }
  for (const AttackSpanRecord& a : journal.attacks) {
    out << "{\"type\": \"attack\", \"lane\": " << a.lane
        << ", \"victim\": " << a.victim << ", \"adversary\": " << a.adversary
        << ", \"attempt\": " << static_cast<int>(a.attempt)
        << ", \"complete\": " << (a.complete ? "true" : "false")
        << ", \"announce_us\": " << a.announce_us
        << ", \"dcv_us\": " << a.dcv_us
        << ", \"conclude_us\": " << a.conclude_us << "}\n";
  }
  for (const QuorumRecord& q : journal.quorums) {
    out << "{\"type\": \"quorum\", \"system\": \"" << json_escape(q.system)
        << "\", \"lane\": " << q.lane << ", \"victim\": " << q.victim
        << ", \"adversary\": " << q.adversary << ", \"corroborated\": "
        << (q.corroborated ? "true" : "false")
        << ", \"virtual_us\": " << q.virtual_us << "}\n";
  }
}

void write_prometheus_text(std::ostream& out,
                           const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prometheus_name(name);
    out << "# HELP " << metric << " Counter " << name << "\n";
    out << "# TYPE " << metric << " counter\n";
    out << metric << " " << value << "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string metric = prometheus_name(h.name);
    out << "# HELP " << metric << " Log2-bucketed histogram " << h.name
        << "\n";
    out << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [le, count] : h.buckets) {
      cumulative += count;
      out << metric << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    out << metric << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << metric << "_sum " << h.sum << "\n";
    out << metric << "_count " << h.count << "\n";
  }
}

namespace {

/// Crash-safe single-file write: stream into `<path>.tmp`, then rename
/// into place. An interrupted run leaves at worst a stale .tmp behind —
/// never a truncated file at the final name, so `mpinspect check` and CI
/// can treat existence as completeness.
bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& emit) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    emit(out);
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace

bool write_trace_dir(const std::string& dir, const FlightJournal& journal,
                     const CpuProfile* profile) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  bool ok = true;

  ok &= write_file_atomic(dir + "/trace.json",
                          [&journal, profile](std::ostream& out) {
                            write_chrome_trace(out, journal, profile);
                          });
  if (has_profile_data(profile)) {
    ok &= write_file_atomic(dir + "/profile.folded",
                            [profile](std::ostream& out) {
                              write_folded_profile(out, *profile);
                            });
  }
  ok &= write_file_atomic(dir + "/journal.ndjson",
                          [&journal](std::ostream& out) {
                            write_journal_ndjson(out, journal);
                          });
  return ok;
}

}  // namespace marcopolo::obs
