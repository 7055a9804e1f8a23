// Minimal JSON support shared by every obs writer and reader.
//
// The repo deliberately carries no external JSON dependency; what it
// needs is small and stable: escape strings on the write side
// (manifests, NDJSON journal, Chrome trace) and parse its *own* output
// on the read side (JournalReader, TimeseriesReader, ManifestReader,
// `mpinspect`). The parser is a strict recursive-descent one — it
// rejects trailing garbage and malformed escapes, which doubles as a
// syntax check on the writers — and preserves integer precision: a token
// without '.' or an exponent is stored as a 64-bit integer, so
// nanosecond timestamps (which exceed double's 2^53 exact-integer range
// on long-uptime hosts) round-trip bit-exactly. read_ndjson() is the one
// line loop behind both NDJSON readers (journal.ndjson,
// timeseries.ndjson).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace marcopolo::obs {

/// Escape `text` for inclusion inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

namespace json {

/// Parse failure: `what()` describes the problem, `offset()` is the
/// byte position in the input where it was detected.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& why, std::size_t offset)
      : std::runtime_error("JSON error at byte " + std::to_string(offset) +
                           ": " + why),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One parsed JSON value. Numbers keep their lexical class: integer
/// tokens parse to uint64/int64 (exact), everything else to double.
struct Value {
  std::variant<std::nullptr_t, bool, std::uint64_t, std::int64_t, double,
               std::string, std::shared_ptr<Array>, std::shared_ptr<Object>>
      v;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<std::uint64_t>(v) ||
           std::holds_alternative<std::int64_t>(v) ||
           std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<Object>>(v);
  }

  /// Typed accessors; throw std::bad_variant_access on the wrong kind.
  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] const Array& array() const {
    return *std::get<std::shared_ptr<Array>>(v);
  }
  [[nodiscard]] const Object& object() const {
    return *std::get<std::shared_ptr<Object>>(v);
  }

  /// Any number as double (integers converted).
  [[nodiscard]] double number() const;
  /// Any number as uint64: exact for integer tokens, doubles truncated
  /// toward zero and saturated to [0, UINT64_MAX] (so a 23-digit literal
  /// or 1e400 reads as UINT64_MAX, a negative value or -1e400 as 0).
  [[nodiscard]] std::uint64_t u64() const;
  /// Same for int64, saturated to [INT64_MIN, INT64_MAX].
  [[nodiscard]] std::int64_t i64() const;

  /// Object member access. at() throws std::out_of_range on a missing
  /// key; find() returns nullptr (the forward-compatible lookup: readers
  /// use it so unknown/missing fields degrade to defaults).
  [[nodiscard]] const Value& at(const std::string& key) const {
    return object().at(key);
  }
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Convenience over find(): the member's value, or `fallback` when the
  /// key is absent or holds a different kind.
  [[nodiscard]] std::uint64_t u64_or(const std::string& key,
                                     std::uint64_t fallback) const;
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
};

/// Deepest array/object nesting parse() accepts. The descent recurses
/// once per level, so an unbounded depth lets a small hostile file
/// overflow the stack; every document the repo writes nests under 10.
inline constexpr std::size_t kMaxDepth = 256;

/// Parse one complete JSON document (throws ParseError, including for
/// nesting deeper than kMaxDepth). Input must be exactly one value plus
/// optional surrounding whitespace.
[[nodiscard]] Value parse(std::string_view text);

/// One problem an NDJSON reader found, anchored to its 1-based line
/// (line 0 is the file itself, e.g. it cannot be opened).
struct LineIssue {
  std::size_t line = 0;
  std::string message;
};

/// The bookkeeping every NDJSON read result carries; the journal and
/// time-series results derive from it.
struct NdjsonRead {
  std::vector<LineIssue> errors;    ///< Malformed lines.
  std::size_t skipped_records = 0;  ///< Unknown "type" (forward compat).
  std::size_t lines = 0;            ///< Non-empty lines consumed.

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Decodes one record: `type` is its "type" tag, `line` its 1-based line
/// number. Returns false when the reader does not know `type`.
using RecordHandler = std::function<bool(
    const std::string& type, const Value& record, std::size_t line)>;

/// The NDJSON line loop: skips empty lines, counts the rest, and reports
/// a line that is not a JSON object with a "type" string as an error on
/// that line. Every other line goes to `handle`; a type it does not know
/// is counted in skipped_records, never an error, so a newer writer's
/// record types read cleanly.
void read_ndjson(std::istream& in, NdjsonRead& out,
                 const RecordHandler& handle);

/// `read` on the file at `path`; an unopenable path yields an empty
/// result with a "cannot open" error on line 0.
template <class Result>
[[nodiscard]] Result read_ndjson_file(const std::string& path,
                                      Result (*read)(std::istream&)) {
  std::ifstream in(path);
  if (!in) {
    Result out;
    out.errors.push_back({0, "cannot open " + path});
    return out;
  }
  return read(in);
}

}  // namespace json
}  // namespace marcopolo::obs
