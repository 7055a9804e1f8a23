// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions: name, start, end and the span that was open
// when it started (its parent). They stay in memory and are written out
// once when the run ends. A layer's self time is the sum, over its spans,
// of each span's duration minus the time its child spans cover.
//
// Single-threaded by design: the traced run replays every layer serially,
// so nested spans never overlap and a stack gives each span its parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mpbench {

class Tracer {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    NameId name = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, NameId name) : tracer_(tracer) {
      index_ = tracer_.open(name);
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Interns a span name once, outside the loops that record it.
  NameId intern(std::string_view name) {
    for (NameId i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<NameId>(names_.size() - 1);
  }

  [[nodiscard]] Scope span(NameId name) { return Scope(*this, name); }
  [[nodiscard]] Scope span(std::string_view name) {
    return Scope(*this, intern(name));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name (names never recorded are absent).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) covered[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[names_[s.name]] +=
          static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9;
    }
    return out;
  }

  /// Total (not self) seconds of every span with this name.
  [[nodiscard]] double total_seconds(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (names_[s.name] == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Writes {"names": [...], "spans": [[name, parent, start_ns, end_ns]]}
  /// with parent -1 for root spans; returns false if the file failed.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"names\": [";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out << (i ? ", " : "") << '"' << names_[i] << '"';
    }
    out << "],\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << '[' << s.name << ','
          << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
          << ',' << s.start_ns << ',' << s.end_ns << ']'
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out.flush());
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint32_t open(NameId name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        Span{name, open_.empty() ? kNoParent : open_.back(), now_ns(), 0});
    open_.push_back(index);
    return index;
  }

  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace mpbench
