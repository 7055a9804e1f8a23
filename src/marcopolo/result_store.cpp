#include "marcopolo/result_store.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "bgp/attack_model.hpp"

namespace marcopolo::core {

ResultStore::ResultStore(std::size_t num_sites, std::size_t num_perspectives)
    : ResultStore(num_sites, num_perspectives,
                  {bgp::AttackType::EquallySpecific}) {}

ResultStore::ResultStore(std::size_t num_sites, std::size_t num_perspectives,
                         std::vector<bgp::AttackType> attacks)
    : num_sites_(num_sites),
      num_perspectives_(num_perspectives),
      words_per_row_((num_sites * num_sites + 63) / 64),
      attacks_(std::move(attacks)),
      outcomes_(num_sites * num_sites * num_perspectives * attacks_.size(),
                kUnrecorded),
      hijack_words_(words_per_row_ * num_perspectives * attacks_.size(), 0) {
  if (attacks_.empty()) {
    throw std::invalid_argument("ResultStore needs at least one attack type");
  }
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    for (std::size_t j = i + 1; j < attacks_.size(); ++j) {
      if (attacks_[i] == attacks_[j]) {
        throw std::invalid_argument(
            std::string("duplicate attack type in ResultStore: ") +
            bgp::to_cstring(attacks_[i]));
      }
    }
  }
}

void ResultStore::record(std::size_t attack, SiteIndex victim,
                         SiteIndex adversary, PerspectiveIndex p,
                         bgp::OriginReached outcome) {
  if (attack >= attacks_.size() || victim >= num_sites_ ||
      adversary >= num_sites_ || p >= num_perspectives_) {
    throw std::out_of_range("record() index");
  }
  record_unsynchronized(attack, victim, adversary, p, outcome);
}

bgp::OriginReached ResultStore::outcome(std::size_t attack, SiteIndex victim,
                                        SiteIndex adversary,
                                        PerspectiveIndex p) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  const std::size_t idx = (attack * num_perspectives_ + p) * num_pairs() +
                          pair_index(victim, adversary);
  const std::uint8_t raw = outcomes_.at(idx);
  if (raw == kUnrecorded) return bgp::OriginReached::None;
  return static_cast<bgp::OriginReached>(raw);
}

std::size_t ResultStore::hijacked_count(
    std::size_t attack, SiteIndex victim, SiteIndex adversary,
    std::span<const PerspectiveIndex> set) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  const std::size_t pair = pair_index(victim, adversary);
  const std::size_t word = pair / 64;
  const std::uint64_t mask = std::uint64_t{1} << (pair % 64);
  const std::size_t base = attack * num_perspectives_ * words_per_row_;
  std::size_t count = 0;
  for (const PerspectiveIndex p : set) {
    count += (hijack_words_[base + p * words_per_row_ + word] & mask) != 0;
  }
  return count;
}

bool ResultStore::pair_complete(std::size_t attack, SiteIndex victim,
                                SiteIndex adversary) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  for (std::size_t p = 0; p < num_perspectives_; ++p) {
    if (outcomes_[(attack * num_perspectives_ + p) * num_pairs() +
                  pair_index(victim, adversary)] == kUnrecorded) {
      return false;
    }
  }
  return true;
}

std::span<const std::uint64_t> ResultStore::hijack_words(
    std::size_t attack, PerspectiveIndex p) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  if (p >= num_perspectives_) throw std::out_of_range("perspective index");
  return {hijack_words_.data() +
              (attack * num_perspectives_ + static_cast<std::size_t>(p)) *
                  words_per_row_,
          words_per_row_};
}

ResultStore ResultStore::extract_attack(std::size_t attack) const {
  if (attack >= attacks_.size()) throw std::out_of_range("attack index");
  ResultStore plane(num_sites_, num_perspectives_, {attacks_[attack]});
  const std::size_t cells = num_perspectives_ * num_pairs();
  std::copy_n(outcomes_.begin() +
                  static_cast<std::ptrdiff_t>(attack * cells),
              cells, plane.outcomes_.begin());
  const std::size_t words = num_perspectives_ * words_per_row_;
  std::copy_n(hijack_words_.begin() +
                  static_cast<std::ptrdiff_t>(attack * words),
              words, plane.hijack_words_.begin());
  return plane;
}

void ResultStore::save_csv(std::ostream& out) const {
  // Version comment first: readers (including load_csv) skip '#' lines,
  // so future format changes can bump the number without breaking old
  // parsers silently. The attack_types comment names each plane so the
  // numeric attack column stays self-describing.
  out << "# schema=2\n";
  out << "# attack_types=";
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    out << (i ? "," : "") << bgp::to_cstring(attacks_[i]);
  }
  out << "\n";
  out << "sites," << num_sites_ << ",perspectives," << num_perspectives_
      << ",attacks," << attacks_.size() << "\n";
  out << "victim,adversary,perspective,attack,outcome\n";
  for (std::size_t v = 0; v < num_sites_; ++v) {
    for (std::size_t a = 0; a < num_sites_; ++a) {
      for (std::size_t p = 0; p < num_perspectives_; ++p) {
        for (std::size_t t = 0; t < attacks_.size(); ++t) {
          const std::size_t idx =
              (t * num_perspectives_ + p) * num_pairs() +
              pair_index(static_cast<SiteIndex>(v), static_cast<SiteIndex>(a));
          if (outcomes_[idx] == kUnrecorded) continue;
          out << v << ',' << a << ',' << p << ',' << t << ','
              << static_cast<int>(outcomes_[idx]) << "\n";
        }
      }
    }
  }
}

namespace {

// Parse the "# attack_types=a,b,c" comment payload into plane tags.
std::vector<bgp::AttackType> parse_attack_type_comment(
    std::string_view names) {
  std::vector<bgp::AttackType> out;
  while (!names.empty()) {
    const std::size_t comma = names.find(',');
    const std::string_view token = names.substr(0, comma);
    const std::optional<bgp::AttackType> type =
        bgp::attack_type_from_string(token);
    if (!type.has_value()) {
      throw std::runtime_error("results csv unknown attack type: " +
                               std::string(token));
    }
    out.push_back(*type);
    if (comma == std::string_view::npos) break;
    names.remove_prefix(comma + 1);
  }
  return out;
}

/// Cell count of a store whose dimensions come from a file header
/// (`format` names the file kind in errors). Sites and perspectives must
/// fit their index types and the size product must fit a size_t, so
/// neither loader sizes a store, or narrows an index, from an unchecked
/// field.
std::size_t checked_cell_count(const std::string& format, std::size_t sites,
                               std::size_t perspectives,
                               std::size_t attacks) {
  if (sites > std::size_t{std::numeric_limits<SiteIndex>::max()} + 1) {
    throw std::runtime_error(format + " site count out of range: " +
                             std::to_string(sites));
  }
  if (perspectives >
      std::size_t{std::numeric_limits<PerspectiveIndex>::max()} + 1) {
    throw std::runtime_error(format + " perspective count out of range: " +
                             std::to_string(perspectives));
  }
  const auto mul = [&format](std::size_t a, std::size_t b) {
    if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
      throw std::runtime_error(format + " header overflows the store size");
    }
    return a * b;
  };
  return mul(mul(mul(sites, sites), perspectives), attacks);
}

}  // namespace

ResultStore ResultStore::load_csv(std::istream& in) {
  std::string line;
  // Accept-and-remember leading comment lines ("# schema=N",
  // "# attack_types=..."); files written before the schema comment existed
  // start at the header row.
  std::vector<bgp::AttackType> attacks;
  do {
    if (!std::getline(in, line)) throw std::runtime_error("empty results csv");
    constexpr std::string_view kTypesTag = "# attack_types=";
    if (line.starts_with(kTypesTag)) {
      attacks = parse_attack_type_comment(
          std::string_view(line).substr(kTypesTag.size()));
    }
  } while (!line.empty() && line.front() == '#');
  std::size_t sites = 0;
  std::size_t perspectives = 0;
  std::size_t num_attacks = 0;  // 0 = schema-1 header, rows have no column
  {
    std::istringstream header(line);
    std::string tag;
    char comma = 0;
    std::getline(header, tag, ',');
    if (tag != "sites") throw std::runtime_error("bad results csv header");
    header >> sites >> comma;
    std::getline(header, tag, ',');
    if (tag != "perspectives") {
      throw std::runtime_error("bad results csv header: expected "
                               "'perspectives' tag, got '" + tag + "'");
    }
    if (!header || !(header >> perspectives)) {
      throw std::runtime_error("bad results csv header counts");
    }
    // Schema 2 extends the header with ",attacks,<k>"; its absence marks a
    // pre-multi-attack file.
    if (header >> comma && std::getline(header, tag, ',')) {
      if (tag != "attacks") {
        throw std::runtime_error("bad results csv header: expected "
                                 "'attacks' tag, got '" + tag + "'");
      }
      if (!(header >> num_attacks) || num_attacks == 0) {
        throw std::runtime_error("bad results csv attack count");
      }
    }
  }
  const bool has_attack_column = num_attacks != 0;
  if (!has_attack_column) {
    // Legacy single-attack file: one plane, tagged with the recorded type
    // when the comment carried one (a schema-2 writer never omits it) or
    // the historical default otherwise.
    if (attacks.size() > 1) {
      throw std::runtime_error(
          "results csv: multiple attack types but schema-1 header");
    }
    if (attacks.empty()) attacks = {bgp::AttackType::EquallySpecific};
  } else if (attacks.size() != num_attacks) {
    throw std::runtime_error(
        "results csv attack_types comment does not match header count");
  }
  (void)checked_cell_count("results csv", sites, perspectives,
                           attacks.size());
  ResultStore store(sites, perspectives, std::move(attacks));
  std::getline(in, line);  // column header
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream row(line);
    std::size_t v = 0;
    std::size_t a = 0;
    std::size_t p = 0;
    std::size_t t = 0;
    int outcome = 0;
    char c = 0;
    row >> v >> c >> a >> c >> p >> c;
    if (has_attack_column) row >> t >> c;
    row >> outcome;
    if (!row) throw std::runtime_error("bad results csv row: " + line);
    if (outcome < static_cast<int>(bgp::OriginReached::None) ||
        outcome > static_cast<int>(bgp::OriginReached::Adversary)) {
      throw std::runtime_error("results csv outcome out of range: " + line);
    }
    if (t >= store.num_attacks()) {
      throw std::runtime_error("results csv attack index out of range: " +
                               line);
    }
    // Range-check before narrowing: a wide index must not wrap onto a
    // valid cell.
    if (v >= store.num_sites() || a >= store.num_sites() ||
        p >= store.num_perspectives()) {
      throw std::runtime_error("results csv row index out of range: " + line);
    }
    store.record(t, static_cast<SiteIndex>(v), static_cast<SiteIndex>(a),
                 static_cast<PerspectiveIndex>(p),
                 static_cast<bgp::OriginReached>(outcome));
  }
  return store;
}

namespace {

constexpr std::array<char, 4> kBinaryMagic = {'M', 'P', 'R', 'S'};
// Schema 1: single implicit EquallySpecific plane, no attack dimension.
// Schema 2: u32 attack count + one attack-type byte per plane after the
// perspective count, planes concatenated in tag order.
constexpr std::uint8_t kBinarySchemaLegacy = 1;
constexpr std::uint8_t kBinarySchema = 2;
// In-file nibble for a cell nobody recorded (in-memory it is 0xff, which
// does not fit a nibble).
constexpr std::uint8_t kNibbleUnrecorded = 0xf;

void put_u32le(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes.data(), bytes.size());
}

std::uint32_t get_u32le(std::istream& in, const char* what) {
  std::array<char, 4> bytes = {};
  if (!in.read(bytes.data(), bytes.size())) {
    throw std::runtime_error(std::string("results binary truncated in ") +
                             what);
  }
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void ResultStore::save_binary(std::ostream& out) const {
  out.write(kBinaryMagic.data(), kBinaryMagic.size());
  const std::array<char, 4> schema_and_reserved = {
      static_cast<char>(kBinarySchema), 0, 0, 0};
  out.write(schema_and_reserved.data(), schema_and_reserved.size());
  put_u32le(out, static_cast<std::uint32_t>(num_sites_));
  put_u32le(out, static_cast<std::uint32_t>(num_perspectives_));
  put_u32le(out, static_cast<std::uint32_t>(attacks_.size()));
  for (const bgp::AttackType t : attacks_) {
    out.put(static_cast<char>(static_cast<std::uint8_t>(t)));
  }
  const std::size_t cells = outcomes_.size();
  std::string plane;
  plane.reserve((cells + 1) / 2);
  for (std::size_t i = 0; i < cells; i += 2) {
    const auto nibble = [&](std::size_t idx) -> std::uint8_t {
      if (idx >= cells) return 0;  // pad nibble when cell count is odd
      const std::uint8_t raw = outcomes_[idx];
      return raw == kUnrecorded ? kNibbleUnrecorded : raw;
    };
    plane.push_back(static_cast<char>(
        static_cast<std::uint8_t>(nibble(i) | (nibble(i + 1) << 4))));
  }
  out.write(plane.data(), static_cast<std::streamsize>(plane.size()));
}

ResultStore ResultStore::load_binary(std::istream& in) {
  std::array<char, 4> magic = {};
  if (!in.read(magic.data(), magic.size()) || magic != kBinaryMagic) {
    throw std::runtime_error("bad results binary magic");
  }
  std::array<char, 4> schema_and_reserved = {};
  if (!in.read(schema_and_reserved.data(), schema_and_reserved.size())) {
    throw std::runtime_error("results binary truncated in header");
  }
  const auto schema = static_cast<std::uint8_t>(schema_and_reserved[0]);
  if (schema != kBinarySchemaLegacy && schema != kBinarySchema) {
    throw std::runtime_error("unsupported results binary schema " +
                             std::to_string(schema));
  }
  // Every header dimension is bounded before anything is sized by it
  // (checked_cell_count below), and a store holds at most one plane per
  // attack type.
  const std::uint32_t sites = get_u32le(in, "sites");
  const std::uint32_t perspectives = get_u32le(in, "perspectives");
  std::vector<bgp::AttackType> attacks;
  if (schema == kBinarySchemaLegacy) {
    attacks = {bgp::AttackType::EquallySpecific};
  } else {
    const std::uint32_t count = get_u32le(in, "attack count");
    if (count == 0) {
      throw std::runtime_error("results binary has zero attack planes");
    }
    if (count > bgp::kAttackTypeCount) {
      throw std::runtime_error("results binary attack count out of range: " +
                               std::to_string(count));
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const int byte = in.get();
      if (byte == std::char_traits<char>::eof()) {
        throw std::runtime_error("results binary truncated in attack types");
      }
      if (static_cast<std::size_t>(byte) >= bgp::kAttackTypeCount) {
        throw std::runtime_error("results binary unknown attack type " +
                                 std::to_string(byte));
      }
      attacks.push_back(static_cast<bgp::AttackType>(byte));
    }
  }
  const std::size_t cells = checked_cell_count("results binary", sites,
                                               perspectives, attacks.size());
  // The plane is read in bounded chunks before the store is built, so a
  // header promising more cells than the stream holds fails after reading
  // what is there, never with an allocation sized by the header alone.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  const std::size_t plane_bytes = cells / 2 + cells % 2;
  std::string plane;
  while (plane.size() < plane_bytes) {
    const std::size_t at = plane.size();
    const std::size_t step = std::min(kChunk, plane_bytes - at);
    plane.resize(at + step);
    if (!in.read(plane.data() + at, static_cast<std::streamsize>(step))) {
      throw std::runtime_error("results binary truncated in outcome plane");
    }
  }
  ResultStore store(sites, perspectives, std::move(attacks));
  const std::size_t cells_per_plane =
      store.num_perspectives_ * store.num_pairs();
  for (std::size_t i = 0; i < cells; ++i) {
    const auto byte = static_cast<std::uint8_t>(plane[i / 2]);
    const std::uint8_t nibble = (i % 2 == 0) ? (byte & 0xf) : (byte >> 4);
    if (nibble == kNibbleUnrecorded) continue;  // constructor default
    if (nibble > static_cast<std::uint8_t>(bgp::OriginReached::Adversary)) {
      throw std::runtime_error("results binary outcome out of range: " +
                               std::to_string(nibble));
    }
    const std::size_t pair = i % store.num_pairs();
    store.record_unsynchronized(
        i / cells_per_plane, static_cast<SiteIndex>(pair / store.num_sites_),
        static_cast<SiteIndex>(pair % store.num_sites_),
        static_cast<PerspectiveIndex>((i / store.num_pairs()) %
                                      store.num_perspectives_),
        static_cast<bgp::OriginReached>(nibble));
  }
  return store;
}

}  // namespace marcopolo::core
