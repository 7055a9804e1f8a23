// Leveled structured logging with a null sink by default.
//
//   MARCOPOLO_LOG(Info) << "campaign started" << obs::field("tasks", n);
//
// The macro short-circuits on level before constructing the message, so a
// disabled level costs one relaxed atomic load and no formatting. The
// default sink drops everything (the library is silent unless the host
// program opts in via set_stderr_sink() or set_sink()); messages are
// rendered as `LEVEL message key=value key=value`.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace marcopolo::obs {

/// Coordinates a `\r`-overwritten live status line (the TelemetryHub's
/// `--progress` line, `mpinspect watch`) with whole-line writers (the
/// Logger stderr sink) sharing one FILE*. Without coordination a log
/// line emitted while the progress line is active splices into it
/// mid-line and the next redraw leaves the tail of the longer line on
/// screen.
///
/// All writers route through one guard per stream:
///   - live_line() renders the current status line: leading \r, padded to
///     blank any longer predecessor, newline only when `final`.
///   - println() emits a full newline-terminated line, blanking the live
///     line first and redrawing it after, so logs scroll above an intact
///     status line.
///
/// Thread-safe (one mutex per guard). stderr_guard() is the process-wide
/// instance every stderr writer shares.
class LineGuard {
 public:
  explicit LineGuard(std::FILE* out) : out_(out) {}
  LineGuard(const LineGuard&) = delete;
  LineGuard& operator=(const LineGuard&) = delete;

  /// Overwrite the live status line with `line`. With `final` the line is
  /// newline-terminated and the live state cleared (the next println()
  /// does not redraw it).
  void live_line(std::string_view line, bool final);

  /// Blank the live line, write `text` + '\n', redraw the live line.
  void println(std::string_view text);

  /// Newline-terminate and forget the live line, if any (e.g. before the
  /// process prints a non-guarded report).
  void finish_live_line();

  /// The shared guard for stderr.
  [[nodiscard]] static LineGuard& stderr_guard();

 private:
  std::FILE* out_;
  std::mutex mutex_;
  std::string live_;       ///< Current live line ("" = none).
  int last_len_ = 0;       ///< For blanking a longer predecessor.
};

enum class LogLevel : std::uint8_t { Debug = 0, Info, Warn, Error, Off };

[[nodiscard]] constexpr const char* to_cstring(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  /// Process-wide logger (null sink, level Off until configured).
  [[nodiscard]] static Logger& global();

  [[nodiscard]] bool enabled(LogLevel level) const {
    return level >= level_.load(std::memory_order_relaxed) &&
           level != LogLevel::Off;
  }

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  /// Replace the sink (pass nullptr to silence again). The sink is called
  /// under a mutex: it may be called from any thread but never
  /// concurrently with itself.
  void set_sink(Sink sink) {
    std::scoped_lock lock(sink_mutex_);
    sink_ = std::move(sink);
  }

  /// Convenience: level + line-buffered stderr sink. With `timestamps`,
  /// every line is prefixed with local wall-clock time
  /// (`HH:MM:SS.mmm`), the format --verbose CLI runs use.
  void set_stderr_sink(LogLevel level = LogLevel::Info,
                       bool timestamps = false);

  void write(LogLevel level, std::string_view message) {
    std::scoped_lock lock(sink_mutex_);
    if (sink_) sink_(level, message);
  }

 private:
  std::atomic<LogLevel> level_{LogLevel::Off};
  std::mutex sink_mutex_;
  Sink sink_;
};

/// A `key=value` pair streamed into a log message.
template <typename T>
struct Field {
  std::string_view key;
  const T& value;
};

template <typename T>
[[nodiscard]] Field<T> field(std::string_view key, const T& value) {
  return Field<T>{key, value};
}

/// One in-flight log statement; flushes to the global logger on
/// destruction (end of the full-expression).
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { Logger::global().write(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  template <typename T>
  LogMessage& operator<<(const Field<T>& f) {
    stream_ << ' ' << f.key << '=' << f.value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace marcopolo::obs

/// Usage: MARCOPOLO_LOG(Info) << ...; — the body is skipped entirely
/// (operands unevaluated) when the level is disabled.
#define MARCOPOLO_LOG(level)                                              \
  for (bool marcopolo_log_once = ::marcopolo::obs::Logger::global().enabled( \
           ::marcopolo::obs::LogLevel::level);                            \
       marcopolo_log_once; marcopolo_log_once = false)                    \
  ::marcopolo::obs::LogMessage(::marcopolo::obs::LogLevel::level)
