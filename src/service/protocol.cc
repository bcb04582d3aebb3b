#include "service/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "bench_common/table_printer.h"

namespace kplex {
namespace {

// ------------------------------------------------------- token utilities
// (the historical ServiceSession helpers, verbatim where it matters for
// error-string compatibility)

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

// Splits "key=value"; value empty when no '=' present.
std::pair<std::string, std::string> SplitKeyValue(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

StatusOr<uint64_t> ParseUint(const std::string& key, const std::string& value,
                             uint64_t max = UINT64_MAX) {
  const std::string malformed =
      "malformed value for " + key + ": '" + value + "'";
  // Digits only: no sign, space, or base prefix.
  for (char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(malformed);
    }
  }
  uint64_t parsed = 0;
  if (value.empty() ||
      std::from_chars(value.data(), value.data() + value.size(), parsed).ec !=
          std::errc() ||
      parsed > max) {
    return Status::InvalidArgument(malformed + " (expected 0.." +
                                   std::to_string(max) + ")");
  }
  return parsed;
}

StatusOr<double> ParseDoubleValue(const std::string& key,
                                  const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    return Status::InvalidArgument("malformed value for " + key + ": '" +
                                   value + "'");
  }
}

/// A seed range (begin, end) and a resume cursor (seed, ordinal) as
/// the wire's "B:E" / "SEED:ORDINAL" value pairs.
using SeedPair = std::pair<uint32_t, uint32_t>;
using CursorPair = std::pair<uint32_t, uint64_t>;

/// Parses "B:E" into a half-open seed range; E may be the literal
/// "end" (= UINT32_MAX, "to the last seed").
StatusOr<SeedPair> ParseSeedRangeValue(const std::string&,
                                       const std::string& value) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "seed-range must be BEGIN:END (half-open; END may be 'end'), got '" +
        value + "'");
  }
  auto parsed_begin =
      ParseUint("seed-range", value.substr(0, colon), UINT32_MAX);
  if (!parsed_begin.ok()) return parsed_begin.status();
  const std::string end_token = value.substr(colon + 1);
  uint64_t parsed_end = UINT32_MAX;
  if (end_token != "end") {
    auto parsed = ParseUint("seed-range", end_token, UINT32_MAX);
    if (!parsed.ok()) return parsed.status();
    parsed_end = *parsed;
  }
  if (*parsed_begin > parsed_end) {
    return Status::InvalidArgument("seed-range begin must be <= end (got '" +
                                   value + "')");
  }
  return SeedPair(*parsed_begin, parsed_end);
}

/// Renders a seed range as "B:E" ("end" for the open upper bound).
std::string FormatSeedRangeValue(const SeedPair& range) {
  return std::to_string(range.first) + ":" +
         (range.second == UINT32_MAX ? std::string("end")
                                     : std::to_string(range.second));
}

/// Parses the resume-token grammar "SEED:ORDINAL".
StatusOr<CursorPair> ParseCursorValue(const std::string&,
                                      const std::string& value) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "cursor must be SEED:ORDINAL (the resume token a truncated run "
        "returned), got '" + value + "'");
  }
  auto parsed_seed = ParseUint("cursor", value.substr(0, colon), UINT32_MAX);
  if (!parsed_seed.ok()) return parsed_seed.status();
  auto parsed_ordinal = ParseUint("cursor", value.substr(colon + 1));
  if (!parsed_ordinal.ok()) return parsed_ordinal.status();
  return CursorPair(*parsed_seed, *parsed_ordinal);
}

/// Cross-field validation of a query, shared by both codecs. The text
/// codec refuses an inverted seed-range= inside its token already; the
/// text filter grammar and the framed min_size/max_size fields fill the
/// same request fields.
Status CheckQuery(const QueryRequest& query) {
  if (query.seed_begin > query.seed_end) {
    return Status::InvalidArgument(
        "seed_begin must be <= seed_end (got " +
        std::to_string(query.seed_begin) + ":" +
        std::to_string(query.seed_end) + ")");
  }
  if (query.filter_min_size > 0 && query.filter_max_size > 0 &&
      query.filter_min_size > query.filter_max_size) {
    return Status::InvalidArgument(
        "filter size>=" + std::to_string(query.filter_min_size) +
        " contradicts size<=" + std::to_string(query.filter_max_size));
  }
  return Status::Ok();
}

/// Parses the selection grammar "size>=S[,size<=T]" (terms in either
/// order) into (min, max) size bounds, 0 = unbounded.
using FilterBounds = std::pair<uint64_t, uint64_t>;
StatusOr<FilterBounds> ParseFilterValue(const std::string&,
                                        const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument(
        "filter must be size>=S or size<=T (comma-separated terms)");
  }
  QueryRequest bounds;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string term = value.substr(pos, comma - pos);
    uint64_t* slot = nullptr;
    if (term.rfind("size>=", 0) == 0) {
      slot = &bounds.filter_min_size;
    } else if (term.rfind("size<=", 0) == 0) {
      slot = &bounds.filter_max_size;
    } else {
      return Status::InvalidArgument("malformed filter term '" + term +
                                     "' (expected size>=S or size<=T)");
    }
    auto parsed = ParseUint("filter", term.substr(6));
    if (!parsed.ok()) return parsed.status();
    if (*parsed == 0) {
      return Status::InvalidArgument("filter size bound must be >= 1");
    }
    *slot = *parsed;
    pos = comma + 1;
  }
  KPLEX_RETURN_IF_ERROR(CheckQuery(bounds));
  return FilterBounds(bounds.filter_min_size, bounds.filter_max_size);
}

/// Parses a 64-bit hex value with a required 0x prefix (the wire shape
/// of fingerprints and content hashes).
StatusOr<uint64_t> ParseHexU64(const std::string& key,
                               const std::string& value) {
  uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  if (value.size() < 3 || value.size() > 18 || value[0] != '0' ||
      (value[1] != 'x' && value[1] != 'X') ||
      std::from_chars(value.data() + 2, end, parsed, 16).ptr != end) {
    return Status::InvalidArgument("malformed value for " + key + ": '" +
                                   value + "' (expected 0xHEX)");
  }
  return parsed;
}

std::string HumanBytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= (std::size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (std::size_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

/// Shortest decimal that survives a parse round trip for the values the
/// protocol carries (option values, seconds).
std::string CompactDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string HexFingerprint(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

// -------------------------------------------------- text result rendering

void WriteMineLine(std::ostream& out, const QueryRequest& query,
                   const QueryResult& result) {
  out << "mined " << DescribeQuery(query) << ": " << result.num_plexes
      << " plexes, max size " << result.max_plex_size << ", "
      << FormatSeconds(result.seconds) << "s";
  if (result.from_cache) out << " [cached]";
  if (result.reduction_precomputed && !result.from_cache) {
    out << " [precomputed reduction]";
  }
  if (result.timed_out) out << " [time limit hit]";
  if (result.stopped_early) out << " [result cap hit]";
  if (result.cancelled) out << " [cancelled]";
  if (result.has_cursor) {
    out << " [cursor "
        << FormatCursorValue(result.cursor_seed, result.cursor_ordinal)
        << "]";
  }
  out << "\n";
}

/// The terminal outcome of a job ("mined ..." / cancellation notice /
/// error line). `prefix` labels asynchronous results ("job 3: ").
void WriteJobOutcome(std::ostream& out, const JobInfo& info,
                     const std::string& prefix) {
  switch (info.state) {
    case JobState::kDone:
      out << prefix;
      WriteMineLine(out, info.request, info.result);
      break;
    case JobState::kCancelled:
      if (!info.started) {
        out << prefix << "cancelled " << DescribeQuery(info.request)
            << " before it started\n";
      } else {
        out << prefix;
        WriteMineLine(out, info.request, info.result);
      }
      break;
    case JobState::kFailed:
      out << prefix << "error: " << info.status.ToString() << "\n";
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      out << prefix << JobStateName(info.state) << "\n";  // unreachable
      break;
  }
}

/// Text rendering of a shard outcome: every number a coordinator (or a
/// human merging by hand) needs — the mergeable xor half, the composite
/// fingerprint, the seed-space size, and the admission hash.
void WriteShardOutcome(std::ostream& out, const ShardResultResponse& shard) {
  const JobInfo& info = shard.job;
  if (info.state == JobState::kFailed) {
    out << "error: " << info.status.ToString() << "\n";
    return;
  }
  if (info.state == JobState::kCancelled && !info.started) {
    out << "cancelled shard " << DescribeQuery(info.request)
        << " before it started\n";
    return;
  }
  out << "shard " << DescribeQuery(info.request) << ": "
      << info.result.num_plexes << " plexes, max size "
      << info.result.max_plex_size << ", xor "
      << HexFingerprint(info.result.fingerprint_xor) << ", fingerprint "
      << HexFingerprint(info.result.fingerprint) << ", total seeds "
      << info.result.total_seeds << ", hash "
      << HexFingerprint(shard.content_hash) << ", "
      << FormatSeconds(info.result.seconds) << "s";
  if (info.result.from_cache) out << " [cached]";
  if (info.result.timed_out) out << " [time limit hit]";
  if (info.result.stopped_early) out << " [result cap hit]";
  if (info.result.cancelled) out << " [cancelled]";
  if (info.result.yielded) {
    out << " [yielded covered=" << info.result.covered_begin << ":"
        << info.result.covered_end << "]";
  }
  out << "\n";
}

// The `store` status line, shared by the store verb and the stats
// rendering so operators read one shape everywhere.
void WriteStoreStatusLine(std::ostream& out, const StoreStatusInfo& info) {
  if (!info.enabled) {
    out << "store: off\n";
    return;
  }
  out << "store: " << info.entries << " entries, "
      << HumanBytes(static_cast<std::size_t>(info.bytes)) << " (budget ";
  if (info.byte_budget > 0) {
    out << HumanBytes(static_cast<std::size_t>(info.byte_budget));
  } else {
    out << "unlimited";
  }
  out << "), " << info.hits << " hits, " << info.misses << " misses, "
      << info.writes << " writes, " << info.evictions << " evictions, "
      << info.corrupt_entries << " corrupt\n";
}

constexpr const char kHelpText[] =
    "commands:\n"
    "  load NAME PATH        register + load a graph file\n"
    "  dataset NAME KEY      register + load a registry dataset\n"
    "  snapshot NAME PATH [precompute] [levels=C1,C2,...]\n"
    "                        write NAME as a binary v2 snapshot;\n"
    "                        precompute stores reduction sections\n"
    "  mine NAME K Q [algo=ours|ours_p|basic|listplex|fp]\n"
    "       [threads=N] [max-results=N] [time-limit=S] [tau-ms=T]\n"
    "       [cache=on|off] [ctcp=on|off] [results=stream|count]\n"
    "       [chunk=N] [filter=size>=S,size<=T] [contain=V] [top=K]\n"
    "       [mode=enumerate|maximum] [cursor=S:O]\n"
    "                        results=stream delivers the plex bodies in\n"
    "                        bounded result chunks before the summary;\n"
    "                        a max-results-truncated sequential run\n"
    "                        reports a cursor to resume from\n"
    "  submit NAME K Q [...] run a mine asynchronously; prints a\n"
    "                        job id immediately\n"
    "  mineshard NAME K Q [seed-range=B:E] [hash=0xH] [...]\n"
    "                        mine one shard of the seed space; hash=\n"
    "                        refuses a mismatched snapshot (sharding)\n"
    "  plan NAME K Q [ctcp]  per-seed cost-estimate probe (degeneracy-\n"
    "                        order degrees + coreness); no enumeration\n"
    "  shardsubmit NAME K Q [seed-range=B:E] [hash=0xH] [...]\n"
    "                        asynchronous mineshard: admission check,\n"
    "                        then a job id immediately (work-stealing)\n"
    "  shardwait ID          block until shard job ID is terminal and\n"
    "                        print its shard result\n"
    "  shardstop ID          ask shard job ID to yield at the next seed\n"
    "                        boundary (its result covers a prefix)\n"
    "  register HOST:PORT    join a coordinator's worker pool\n"
    "  heartbeat ID          refresh worker ID's liveness (coordinator)\n"
    "  drain ID              stop scheduling onto worker ID (coordinator)\n"
    "  workers               the coordinator's worker-pool table\n"
    "  cancel ID             cancel a queued or running job\n"
    "  jobs                  status of every submitted job\n"
    "  wait [ID]             block until job ID (or all jobs) done\n"
    "  stats                 catalog + cache + dispatcher stats\n"
    "  metrics [format=table|prom]\n"
    "                        scrape the process metrics registry\n"
    "  evict NAME            drop the resident copy\n"
    "  store [evict]         durable result-store status; `store evict`\n"
    "                        deletes every persisted entry\n"
    "  hello [proto=N] [mode=text|framed]\n"
    "                        negotiate the protocol version; mode=framed\n"
    "                        switches to the JSON-lines encoding\n"
    "  quit                  end the session\n";

// ----------------------------------------------------------- JSON writing

void JsonEscapeTo(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Appends `"key":` + primitive values to a flat JSON object/array under
/// construction. Keeps the codec dependency-free.
class JsonWriter {
 public:
  void BeginObject() { Separate(); out_ += '{'; fresh_ = true; }
  void EndObject() { out_ += '}'; fresh_ = false; }
  void BeginArray(const std::string& key) {
    Key(key);
    out_ += '[';
    fresh_ = true;
  }
  void BeginObjectValue(const std::string& key) {
    Key(key);
    out_ += '{';
    fresh_ = true;
  }
  void BeginArrayElementObject() { Separate(); out_ += '{'; fresh_ = true; }
  void BeginArrayElementArray() { Separate(); out_ += '['; fresh_ = true; }
  void EndArray() { out_ += ']'; fresh_ = false; }

  void Add(const std::string& key, const std::string& value) {
    Key(key);
    out_ += '"';
    JsonEscapeTo(out_, value);
    out_ += '"';
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  // One template for every unsigned integer width: uint32_t, uint64_t,
  // and std::size_t (which is a third distinct type on LP64 macOS —
  // fixed-width overloads would be ambiguous there). bool prefers its
  // exact non-template overload below.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void Add(const std::string& key, T value) {
    Key(key);
    out_ += std::to_string(static_cast<uint64_t>(value));
  }
  void Add(const std::string& key, double value) {
    Key(key);
    out_ += CompactDouble(value);
  }
  void Add(const std::string& key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }
  // Exact overload so negative gauge values survive (the integral
  // template above funnels through uint64_t).
  void Add(const std::string& key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }
  // Same template shape as Add: one overload for every unsigned
  // integer width, so uint32_t callers do not see an ambiguity between
  // uint64_t and double.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void AddElement(T value) {
    Separate();
    out_ += std::to_string(static_cast<uint64_t>(value));
  }
  void AddElement(double value) {
    Separate();
    out_ += CompactDouble(value);
  }

  const std::string& str() const { return out_; }

 private:
  void Key(const std::string& key) {
    Separate();
    out_ += '"';
    JsonEscapeTo(out_, key);
    out_ += "\":";
  }
  void Separate() {
    if (!fresh_ && !out_.empty() && out_.back() != '{' &&
        out_.back() != '[') {
      out_ += ',';
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;
};

// ----------------------------------------------------------- JSON parsing

/// Minimal JSON value for the framed codec. Integers that fit uint64
/// stay exact (job ids, max_results, fingerprints); everything else
/// numeric is a double.
struct JsonValue {
  enum class Kind { kNull, kBool, kUint, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  uint64_t uint_value = 0;
  double double_value = 0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Recursive-descent JSON parser: full string escapes, a depth cap
/// against crafted nesting, and error positions. Crash-free on any
/// byte sequence by construction (no recursion past kMaxDepth, no
/// unchecked indexing).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after the JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 32;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("malformed frame: " + what +
                                   " at byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f' || c == 'n') return ParseLiteral();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return value;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':' after key");
      auto element = ParseValue(depth + 1);
      if (!element.ok()) return element.status();
      value.object.emplace_back(key->string_value, *std::move(element));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return value;
    for (;;) {
      auto element = ParseValue(depth + 1);
      if (!element.ok()) return element.status();
      value.array.push_back(*std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<JsonValue> ParseString() {
    ++pos_;  // '"'
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control byte in string");
      }
      if (c != '\\') {
        value.string_value += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': value.string_value += '"'; break;
        case '\\': value.string_value += '\\'; break;
        case '/': value.string_value += '/'; break;
        case 'n': value.string_value += '\n'; break;
        case 'r': value.string_value += '\r'; break;
        case 't': value.string_value += '\t'; break;
        case 'b': value.string_value += '\b'; break;
        case 'f': value.string_value += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          const char* digits = text_.data() + pos_;
          const char* end = std::from_chars(digits, digits + 4, code, 16).ptr;
          pos_ += static_cast<std::size_t>(end - digits);
          if (end != digits + 4) {
            ++pos_;  // the error names the byte after the bad digit
            return Error("bad \\u escape digit");
          }
          // BMP code points only (no surrogate-pair recombination);
          // enough for the protocol's field values.
          if (code < 0x80) {
            value.string_value += static_cast<char>(code);
          } else if (code < 0x800) {
            value.string_value += static_cast<char>(0xC0 | (code >> 6));
            value.string_value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value.string_value += static_cast<char>(0xE0 | (code >> 12));
            value.string_value +=
                static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value.string_value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown string escape");
      }
    }
    return Error("unterminated string");
  }

  /// true / false / null.
  StatusOr<JsonValue> ParseLiteral() {
    for (std::string_view word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) != 0) continue;
      pos_ += word.size();
      JsonValue value;
      value.kind = word == "null" ? JsonValue::Kind::kNull
                                  : JsonValue::Kind::kBool;
      value.bool_value = word == "true";
      return value;
    }
    return Error(text_[pos_] == 'n' ? "expected null" : "expected true/false");
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue value;
    // Integers that overflow uint64 fall through to the double path.
    if (!fractional && token[0] != '-' &&
        std::from_chars(token.data(), token.data() + token.size(),
                        value.uint_value)
                .ec == std::errc()) {
      value.kind = JsonValue::Kind::kUint;
      return value;
    }
    try {
      std::size_t used = 0;
      value.double_value = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      return Error("malformed number '" + token + "'");
    }
    value.kind = JsonValue::Kind::kDouble;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --------------------------------------------- framed field extraction

Status UnknownField(const std::string& cmd, const std::string& key) {
  return Status::InvalidArgument("unknown field '" + key + "' for '" + cmd +
                                 "'");
}

Status WrongType(const std::string& key, const char* expected) {
  return Status::InvalidArgument("field '" + key + "' must be " + expected);
}

StatusOr<std::string> GetString(const JsonValue& value,
                                const std::string& key) {
  if (value.kind != JsonValue::Kind::kString) {
    return WrongType(key, "a string");
  }
  return value.string_value;
}

StatusOr<uint64_t> GetUint(const JsonValue& value, const std::string& key,
                           uint64_t max = UINT64_MAX) {
  if (value.kind != JsonValue::Kind::kUint || value.uint_value > max) {
    return WrongType(key, ("an unsigned integer <= " + std::to_string(max))
                              .c_str());
  }
  return value.uint_value;
}

StatusOr<double> GetDouble(const JsonValue& value, const std::string& key) {
  if (value.kind == JsonValue::Kind::kUint) {
    return static_cast<double>(value.uint_value);
  }
  if (value.kind == JsonValue::Kind::kDouble) return value.double_value;
  return WrongType(key, "a number");
}

StatusOr<bool> GetBool(const JsonValue& value, const std::string& key) {
  if (value.kind != JsonValue::Kind::kBool) {
    return WrongType(key, "a boolean");
  }
  return value.bool_value;
}

StatusOr<std::vector<uint32_t>> GetUint32Array(const JsonValue& value,
                                               const std::string& key) {
  if (value.kind != JsonValue::Kind::kArray) {
    return WrongType(key, "an array of unsigned integers");
  }
  std::vector<uint32_t> out;
  for (const JsonValue& element : value.array) {
    auto parsed = GetUint(element, key, UINT32_MAX);
    if (!parsed.ok()) return parsed.status();
    out.push_back(static_cast<uint32_t>(*parsed));
  }
  return out;
}

// ------------------------------------------------------------ request table
// Every request verb is declared once, in RequestTable() below: its
// payload type, its fields in wire order, and its text usage line. The
// four request codecs (text and framed, parse and format) are short
// drivers over that table, and each value type is read and written for
// both wires by one field codec.

/// How a field is spelled on the text wire. Positionals come first in a
/// verb's field list.
enum TextForm {
  kPos,     ///< by position after the verb; required
  kOptPos,  ///< by position, may be left off (`wait [ID]`)
  kOpt,     ///< `key=value` after the positionals
  kWord,    ///< a bare word after the positionals: bool true
};

/// How a field reads and writes its value in a payload of its verb's
/// type. `key` is the field's spelling on the wire at hand, for errors.
class FieldOps {
 public:
  FieldOps() = default;
  FieldOps(const FieldOps&) = delete;
  FieldOps& operator=(const FieldOps&) = delete;
  virtual ~FieldOps() = default;
  virtual Status FromText(RequestPayload& payload, const char* key,
                          const std::string& token) const = 0;
  virtual Status FromJson(RequestPayload& payload, const char* key,
                          const JsonValue& value) const = 0;
  /// True when formatting leaves the field out.
  virtual bool Omitted(const RequestPayload& payload) const = 0;
  virtual std::string ToText(const RequestPayload& payload) const = 0;
  virtual void ToJson(const RequestPayload& payload, const char* key,
                      JsonWriter& json) const = 0;
};

/// One request field. `text` is the text key, the bare word, or the
/// positional's label in errors ("K", "ID"); `json` the framed key.
/// Either is null for a field only one wire carries (seed-range= is
/// seed_begin + seed_end on the framed wire).
struct Field {
  const char* text;
  TextForm form;
  const char* json;
  std::shared_ptr<const FieldOps> ops;
};

/// A field codec: the text token of a T, and — unless `parse_json` is
/// set, for native JSON numbers, booleans and arrays — that same token
/// as a JSON string. `key` is the spelling on the wire at hand.
template <typename T>
struct Codec {
  std::function<StatusOr<T>(const std::string& key, const std::string&)>
      parse;
  std::function<std::string(const T&)> format;
  std::function<StatusOr<T>(const std::string& key, const JsonValue&)>
      parse_json = nullptr;
};

/// Unsigned integer up to `max`; a non-null `zero_error` refuses 0, the
/// "unset" default of chunk, top and the filter bounds.
template <typename T>
Codec<T> UintCodec(uint64_t max = std::numeric_limits<T>::max(),
                   const char* zero_error = nullptr) {
  auto check = [zero_error](StatusOr<uint64_t> value) -> StatusOr<T> {
    if (!value.ok()) return value.status();
    if (zero_error != nullptr && *value == 0) {
      return Status::InvalidArgument(zero_error);
    }
    return static_cast<T>(*value);
  };
  return {[=](const std::string& key, const std::string& text) {
            return check(ParseUint(key, text, max));
          },
          [](const T& value) { return std::to_string(value); },
          [=](const std::string& key, const JsonValue& value) {
            return check(GetUint(value, key, max));
          }};
}

/// A duration: time-limit (seconds) or tau-ms (milliseconds), held to
/// CheckQueryDuration's range.
Codec<double> DurationCodec() {
  auto check = [](const std::string& key,
                  StatusOr<double> value) -> StatusOr<double> {
    if (value.ok()) KPLEX_RETURN_IF_ERROR(CheckQueryDuration(key, *value));
    return value;
  };
  return {[=](const std::string& key, const std::string& text) {
            return check(key, ParseDoubleValue(key, text));
          },
          CompactDouble,
          [=](const std::string& key, const JsonValue& value) {
            return check(key, GetDouble(value, key));
          }};
}

/// A bool spelled as one of two names on both wires; `first_is_true`
/// says which (results=stream|count, mode=enumerate|maximum).
Codec<bool> ChoiceCodec(const char* first, const char* second,
                        bool first_is_true) {
  return {[=](const std::string& key, const std::string& text)
              -> StatusOr<bool> {
            if (text != first && text != second) {
              return Status::InvalidArgument(key + " must be " + first +
                                             " or " + second);
            }
            return (text == first) == first_is_true;
          },
          [=](const bool& value) {
            return std::string(value == first_is_true ? first : second);
          }};
}

/// `on|off` on the text wire (a bare word reads as "on"); a JSON bool.
Codec<bool> OnOffCodec() {
  Codec<bool> codec = ChoiceCodec("on", "off", true);
  codec.parse_json = [](const std::string& key, const JsonValue& value) {
    return GetBool(value, key);
  };
  return codec;
}

/// A value spelled by a text parser and formatter (strings, names,
/// "B:E" tokens, hex hashes).
template <typename T, typename Parse, typename Format>
Codec<T> TextCodec(Parse parse, Format format) {
  return {[parse](const std::string& key,
                  const std::string& text) -> StatusOr<T> {
            if constexpr (std::is_invocable_v<Parse, const std::string&>) {
              return parse(text);  // a parser that names no key
            } else {
              return parse(key, text);
            }
          },
          [format](const T& value) { return std::string(format(value)); }};
}

Codec<std::string> StringCodec() {
  auto same = [](const std::string& text) { return text; };
  return TextCodec<std::string>(same, same);
}

/// `size>=S,size<=T` as its (min, max) bounds, 0 = unbounded.
Codec<FilterBounds> FilterCodec() {
  return TextCodec<FilterBounds>(
      ParseFilterValue, [](const FilterBounds& bounds) {
        std::string terms;
        if (bounds.first > 0) terms = "size>=" + std::to_string(bounds.first);
        if (bounds.second > 0) {
          terms += (terms.empty() ? "size<=" : ",size<=") +
                   std::to_string(bounds.second);
        }
        return terms;
      });
}

/// `C1,C2,...` on the text wire; a JSON array.
Codec<std::vector<uint32_t>> LevelListCodec() {
  Codec<std::vector<uint32_t>> codec = TextCodec<std::vector<uint32_t>>(
      ParseCoreLevelList,
      [](const std::vector<uint32_t>& levels) {
        std::string list;
        for (uint32_t level : levels) {
          list += (list.empty() ? "" : ",") + std::to_string(level);
        }
        return list;
      });
  codec.parse_json = [](const std::string& key, const JsonValue& value) {
    return GetUint32Array(value, key);
  };
  return codec;
}

/// Lifts a codec to std::optional<T>: absent is the default, left out.
template <typename T>
Codec<std::optional<T>> Optional(Codec<T> inner) {
  auto lift = [](auto parse) {
    return [parse](const std::string& key, const auto& in)
               -> StatusOr<std::optional<T>> {
      auto parsed = parse(key, in);
      if (!parsed.ok()) return parsed.status();
      return std::optional<T>(*parsed);
    };
  };
  Codec<std::optional<T>> codec{
      lift(inner.parse),
      [inner](const std::optional<T>& value) { return inner.format(*value); }};
  if (inner.parse_json) codec.parse_json = lift(inner.parse_json);
  return codec;
}

/// Writes a value whose codec has a native JSON form.
template <typename T>
void AddNativeJson(JsonWriter& json, const char* key, const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    json.Add(key, value);
  } else if constexpr (std::is_same_v<T, std::vector<uint32_t>>) {
    json.BeginArray(key);
    for (uint32_t element : value) json.AddElement(element);
    json.EndArray();
  } else if constexpr (requires { *value; }) {
    AddNativeJson(json, key, *value);
  }
}

/// The record a field of type R lives in: the payload itself, or the
/// QueryRequest inside a mine-family payload.
template <typename R, typename Payload>
auto& RecordOf(Payload& payload) {
  if constexpr (std::is_same_v<R, QueryRequest>) {
    std::conditional_t<std::is_const_v<Payload>, const QueryRequest*,
                       QueryRequest*>
        query = nullptr;
    std::visit(
        [&query](auto& held) {
          if constexpr (requires { held.query; }) query = &held.query;
        },
        payload);
    return *query;
  } else {
    return std::get<R>(payload);
  }
}

/// `codec` reading and writing the value `get` returns and `set`
/// stores in a record of type R. Unless `always`, the field is left out
/// while it equals the default record's.
template <typename R, typename T>
class Binding : public FieldOps {
 public:
  Binding(Codec<T> codec, std::function<T(const R&)> get,
          std::function<void(R&, T)> set, bool always)
      : codec_(std::move(codec)),
        get_(std::move(get)),
        set_(std::move(set)),
        always_(always) {}

  Status FromText(RequestPayload& payload, const char* key,
                  const std::string& token) const override {
    return Store(payload, codec_.parse(key, token));
  }
  Status FromJson(RequestPayload& payload, const char* key,
                  const JsonValue& value) const override {
    if (codec_.parse_json) return Store(payload, codec_.parse_json(key, value));
    auto token = GetString(value, key);
    if (!token.ok()) return token.status();
    return Store(payload, codec_.parse(key, *token));
  }
  bool Omitted(const RequestPayload& payload) const override {
    static const R kDefaults{};
    return !always_ && Value(payload) == get_(kDefaults);
  }
  std::string ToText(const RequestPayload& payload) const override {
    return codec_.format(Value(payload));
  }
  void ToJson(const RequestPayload& payload, const char* key,
              JsonWriter& json) const override {
    if (codec_.parse_json) {
      AddNativeJson(json, key, Value(payload));
    } else {
      json.Add(key, codec_.format(Value(payload)));
    }
  }

 private:
  T Value(const RequestPayload& payload) const {
    return get_(RecordOf<R>(payload));
  }
  Status Store(RequestPayload& payload, StatusOr<T> value) const {
    if (!value.ok()) return value.status();
    set_(RecordOf<R>(payload), *std::move(value));
    return Status::Ok();
  }

  Codec<T> codec_;
  std::function<T(const R&)> get_;
  std::function<void(R&, T)> set_;
  bool always_;
};

/// One table row over a value `get` reads and `set` stores in a record
/// of type R. Positionals and `always` fields are always written.
template <typename R, typename T>
Field BindVia(const char* text, TextForm form, const char* json,
              Codec<T> codec,
              std::type_identity_t<std::function<T(const R&)>> get,
              std::type_identity_t<std::function<void(R&, T)>> set,
              bool always = false) {
  return {text, form, json,
          std::make_shared<Binding<R, T>>(std::move(codec), std::move(get),
                                          std::move(set),
                                          always || form == kPos)};
}

/// BindVia for a plain member.
template <typename R, typename T>
Field Bind(const char* text, TextForm form, const char* json, T R::*member,
           Codec<T> codec, bool always = false) {
  return BindVia<R, T>(
      text, form, json, std::move(codec),
      [member](const R& record) { return record.*member; },
      [member](R& record, T value) { record.*member = std::move(value); },
      always);
}

// ------------------------------------------------------------------ verbs

/// What the text grammar answers to a token no field spells.
enum class Unknown {
  kUsage,    ///< the verb's usage line
  kKey,      ///< "unknown VERB option 'KEY'"
  kToken,    ///< "unknown VERB option 'TOKEN'"
  kIgnored,  ///< dropped (verbs without fields: `jobs`, `stats`, ...)
};

struct Verb {
  const char* name;
  RequestPayload prototype;  ///< the default payload parsing starts from
  std::vector<Field> fields;
  const char* usage = "";  ///< text usage after the verb name
  Unknown unknown = Unknown::kUsage;
  /// Cross-field validation after either codec read the fields.
  Status (*check)(const RequestPayload&) = nullptr;
  const char* text_alias = nullptr;  ///< `exit` for quit
};

/// The query options of mine / submit / mineshard / shardsubmit, in
/// wire order. A value behind a presence flag (contain, cursor, the
/// framed seed bounds) rides std::optional: nullopt is exactly when
/// the field is left out.
std::vector<Field> QueryFields() {
  using Q = QueryRequest;
  using U32 = std::optional<uint32_t>;
  const auto cursor = TextCodec<CursorPair>(
      ParseCursorValue, [](const CursorPair& token) {
        return FormatCursorValue(token.first, token.second);
      });
  const auto size_bound =
      UintCodec<uint64_t>(UINT64_MAX, "filter size bound must be >= 1");
  // seed_begin / seed_end: both framed whenever the range is a shard.
  auto seed_key = [](const char* json, uint32_t Q::*bound) {
    return BindVia<Q>(
        nullptr, kOpt, json, Optional(UintCodec<uint32_t>()),
        [bound](const Q& q) {
          return q.HasSeedRange() ? U32(q.*bound) : U32();
        },
        [bound](Q& q, U32 value) { q.*bound = *value; });
  };
  return {
      Bind("NAME", kPos, "graph", &Q::graph, StringCodec()),
      Bind("K", kPos, "k", &Q::k, UintCodec<uint32_t>()),
      Bind("Q", kPos, "q", &Q::q, UintCodec<uint32_t>()),
      Bind("algo", kOpt, "algo", &Q::algo,
           TextCodec<QueryAlgo>(ParseQueryAlgo, QueryAlgoName)),
      Bind("threads", kOpt, "threads", &Q::threads,
           UintCodec<uint32_t>(kMaxQueryThreads)),
      Bind("max-results", kOpt, "max_results", &Q::max_results,
           UintCodec<uint64_t>()),
      Bind("time-limit", kOpt, "time_limit", &Q::time_limit_seconds,
           DurationCodec()),
      Bind("tau-ms", kOpt, "tau_ms", &Q::tau_ms, DurationCodec()),
      Bind("ctcp", kOpt, "ctcp", &Q::use_ctcp, OnOffCodec()),
      Bind("cache", kOpt, "cache", &Q::use_cache, OnOffCodec()),
      BindVia<Q>("seed-range", kOpt, nullptr,
                 TextCodec<SeedPair>(ParseSeedRangeValue, FormatSeedRangeValue),
                 [](const Q& q) { return SeedPair(q.seed_begin, q.seed_end); },
                 [](Q& q, SeedPair range) {
                   std::tie(q.seed_begin, q.seed_end) = range;
                 }),
      seed_key("seed_begin", &Q::seed_begin),
      seed_key("seed_end", &Q::seed_end),
      Bind("results", kOpt, "results", &Q::collect_bodies,
           ChoiceCodec("stream", "count", true)),
      Bind("chunk", kOpt, "chunk", &Q::chunk_size,
           UintCodec<uint32_t>(65536, "chunk must be >= 1")),
      BindVia<Q>("filter", kOpt, nullptr, FilterCodec(),
                 [](const Q& q) {
                   return FilterBounds(q.filter_min_size, q.filter_max_size);
                 },
                 // Each filter= token sets only the bounds it names.
                 [](Q& q, FilterBounds bounds) {
                   if (bounds.first > 0) q.filter_min_size = bounds.first;
                   if (bounds.second > 0) q.filter_max_size = bounds.second;
                 }),
      Bind(nullptr, kOpt, "min_size", &Q::filter_min_size, size_bound),
      Bind(nullptr, kOpt, "max_size", &Q::filter_max_size, size_bound),
      BindVia<Q>("contain", kOpt, "contain", Optional(UintCodec<uint32_t>()),
                 [](const Q& q) {
                   return q.has_contain ? U32(q.contain) : std::nullopt;
                 },
                 [](Q& q, U32 vertex) {
                   q.has_contain = true;
                   q.contain = *vertex;
                 }),
      Bind("top", kOpt, "top", &Q::top_k,
           UintCodec<uint64_t>(UINT64_MAX, "top must be >= 1")),
      Bind("mode", kOpt, "mode", &Q::maximum,
           ChoiceCodec("enumerate", "maximum", false)),
      BindVia<Q>("cursor", kOpt, "cursor", Optional(cursor),
                 [](const Q& q) -> std::optional<CursorPair> {
                   if (!q.has_cursor) return std::nullopt;
                   return CursorPair{q.cursor_seed, q.cursor_ordinal};
                 },
                 [](Q& q, std::optional<CursorPair> cursor) {
                   q.has_cursor = true;
                   std::tie(q.cursor_seed, q.cursor_ordinal) = *cursor;
                 }),
  };
}

/// A mine-family verb: the query fields plus the shard verbs' `hash=`
/// admission check.
template <typename P>
Verb QueryVerb(const char* name) {
  Verb verb{name, P{}, QueryFields(),
            " NAME K Q [algo=...] [threads=N] [max-results=N] "
            "[time-limit=S] [tau-ms=T] [cache=on|off] [seed-range=B:E] "
            "[results=stream|count] [chunk=N] [filter=size>=S,size<=T] "
            "[contain=V] [top=K] [mode=enumerate|maximum] [cursor=S:O]",
            Unknown::kKey, [](const RequestPayload& payload) {
              return CheckQuery(RecordOf<QueryRequest>(payload));
            }};
  if constexpr (requires { &P::expected_hash; }) {
    verb.fields.push_back(
        Bind("hash", kOpt, "hash", &P::expected_hash,
             TextCodec<uint64_t>(ParseHexU64, HexFingerprint)));
  }
  return verb;
}

/// A verb whose one field is a required id (`cancel ID`, ...).
template <typename P>
Verb IdVerb(const char* name, const char* json, uint64_t P::*member) {
  return {name, P{}, {Bind("ID", kPos, json, member, UintCodec<uint64_t>())},
          " ID"};
}

/// The request table: one entry per RequestPayload alternative.
const std::vector<Verb>& RequestTable() {
  static const std::vector<Verb> table = {
      {"hello", HelloRequest{},
       {Bind("proto", kOpt, "proto", &HelloRequest::version,
             UintCodec<uint32_t>(), /*always=*/true),
        Bind("mode", kOpt, "mode", &HelloRequest::mode,
             Optional(TextCodec<WireMode>(ParseWireMode, WireModeName)))},
       " [proto=N] [mode=text|framed]"},
      {"load", LoadRequest{},
       {Bind("NAME", kPos, "name", &LoadRequest::name, StringCodec()),
        Bind("PATH", kPos, "path", &LoadRequest::path, StringCodec())},
       " NAME PATH"},
      {"dataset", DatasetRequest{},
       {Bind("NAME", kPos, "name", &DatasetRequest::name, StringCodec()),
        Bind("KEY", kPos, "key", &DatasetRequest::key, StringCodec())},
       " NAME KEY"},
      {"snapshot", SnapshotRequest{},
       {Bind("NAME", kPos, "name", &SnapshotRequest::name, StringCodec()),
        Bind("PATH", kPos, "path", &SnapshotRequest::path, StringCodec()),
        // The text wire spells `precompute` only when no levels= (which
        // implies it) follows; the framed wire always carries the flag.
        BindVia<SnapshotRequest>(
            "precompute", kWord, nullptr, OnOffCodec(),
            [](const SnapshotRequest& snapshot) {
              return snapshot.include_precompute &&
                     snapshot.core_mask_levels.empty();
            },
            [](SnapshotRequest& snapshot, bool on) {
              snapshot.include_precompute = on;
            }),
        Bind(nullptr, kOpt, "precompute",
             &SnapshotRequest::include_precompute, OnOffCodec()),
        BindVia<SnapshotRequest>(
            "levels", kOpt, "levels", LevelListCodec(),
            [](const SnapshotRequest& snapshot) {
              return snapshot.core_mask_levels;
            },
            [](SnapshotRequest& snapshot, std::vector<uint32_t> levels) {
              snapshot.include_precompute = true;
              snapshot.core_mask_levels = std::move(levels);
            })},
       " NAME PATH [precompute] [levels=C1,C2,...]", Unknown::kToken},
      QueryVerb<MineRequest>("mine"),
      QueryVerb<SubmitRequest>("submit"),
      QueryVerb<MineShardRequest>("mineshard"),
      {"plan", PlanRequest{},
       {Bind("NAME", kPos, "graph", &PlanRequest::graph, StringCodec()),
        Bind("K", kPos, "k", &PlanRequest::k, UintCodec<uint32_t>()),
        Bind("Q", kPos, "q", &PlanRequest::q, UintCodec<uint32_t>()),
        Bind("ctcp", kWord, "ctcp", &PlanRequest::use_ctcp, OnOffCodec())},
       " NAME K Q [ctcp]"},
      QueryVerb<ShardSubmitRequest>("shardsubmit"),
      IdVerb("shardwait", "job", &ShardWaitRequest::job),
      IdVerb("shardstop", "job", &ShardStopRequest::job),
      {"register", RegisterRequest{},
       {Bind("HOST:PORT", kPos, "endpoint", &RegisterRequest::endpoint,
             StringCodec())},
       " HOST:PORT"},
      IdVerb("heartbeat", "worker", &HeartbeatRequest::worker),
      IdVerb("drain", "worker", &DrainRequest::worker),
      {"workers", WorkersRequest{}, {}, "", Unknown::kIgnored},
      IdVerb("cancel", "job", &CancelRequest::job),
      {"jobs", JobsRequest{}, {}, "", Unknown::kIgnored},
      {"wait", WaitRequest{},
       {Bind("ID", kOptPos, "job", &WaitRequest::job,
             Optional(UintCodec<uint64_t>()))},
       " [ID]"},
      {"stats", StatsRequest{}, {}, "", Unknown::kIgnored},
      {"metrics", MetricsRequest{},
       {Bind("format", kOpt, "format", &MetricsRequest::format,
             StringCodec())},
       " [format=table|prom]"},
      {"evict", EvictRequest{},
       {Bind("NAME", kPos, "name", &EvictRequest::name, StringCodec())},
       " NAME"},
      {"store", StoreRequest{},
       {Bind("evict", kWord, "evict", &StoreRequest::evict, OnOffCodec())},
       " [evict]"},
      {"help", HelpRequest{}, {}, "", Unknown::kIgnored},
      {"quit", QuitRequest{}, {}, "", Unknown::kIgnored, nullptr, "exit"},
  };
  return table;
}

/// The verb named `name` (text aliases included when `text`).
StatusOr<const Verb*> FindVerb(const std::string& name, bool text) {
  for (const Verb& verb : RequestTable()) {
    if (name == verb.name ||
        (text && verb.text_alias != nullptr && name == verb.text_alias)) {
      return &verb;
    }
  }
  return Status::InvalidArgument("unknown command '" + name +
                                 "' (try 'help')");
}

/// The verb of a payload; the table has one per alternative (the
/// protocol test's corpus covers every one).
const Verb& VerbOf(const RequestPayload& payload) {
  return *std::find_if(RequestTable().begin(), RequestTable().end(),
                       [&payload](const Verb& verb) {
                         return verb.prototype.index() == payload.index();
                       });
}

// ------------------------------------------------- framed job rendering

void WriteQueryObject(JsonWriter& json, const std::string& key,
                      const QueryRequest& query) {
  json.BeginObjectValue(key);
  json.Add("graph", query.graph);
  json.Add("k", query.k);
  json.Add("q", query.q);
  json.Add("algo", QueryAlgoName(query.algo));
  if (query.threads > 0) json.Add("threads", query.threads);
  if (query.max_results > 0) json.Add("max_results", query.max_results);
  if (query.time_limit_seconds > 0) {
    json.Add("time_limit", query.time_limit_seconds);
  }
  if (query.tau_ms != QueryRequest{}.tau_ms) json.Add("tau_ms", query.tau_ms);
  if (query.use_ctcp) json.Add("ctcp", true);
  if (!query.use_cache) json.Add("cache", false);
  if (query.HasSeedRange()) {
    json.Add("seed_begin", query.seed_begin);
    json.Add("seed_end", query.seed_end);
  }
  json.EndObject();
}

void WriteJobFields(JsonWriter& json, const JobInfo& info) {
  json.Add("job", info.id);
  WriteQueryObject(json, "query", info.request);
  json.Add("state", JobStateName(info.state));
  json.Add("started", info.started);
  const bool has_result =
      info.state == JobState::kDone ||
      (info.state == JobState::kCancelled && info.started);
  if (has_result) {
    json.Add("plexes", info.result.num_plexes);
    json.Add("max_size", info.result.max_plex_size);
    json.Add("fingerprint", HexFingerprint(info.result.fingerprint));
    json.Add("seconds", info.result.seconds);
    json.Add("compute_seconds", info.result.compute_seconds);
    json.Add("cached", info.result.from_cache);
    json.Add("precomputed", info.result.reduction_precomputed);
    json.Add("timed_out", info.result.timed_out);
    json.Add("stopped_early", info.result.stopped_early);
    json.Add("cancelled", info.result.cancelled);
    if (info.result.plexes != nullptr) {
      json.Add("bodies", info.result.plexes->size());
    }
    if (info.result.has_cursor) {
      json.Add("cursor", FormatCursorValue(info.result.cursor_seed,
                                           info.result.cursor_ordinal));
    }
  }
  if (info.state == JobState::kFailed) {
    json.BeginObjectValue("error");
    json.Add("code", StatusCodeName(info.status.code()));
    json.Add("message", info.status.message());
    json.EndObject();
  }
}

}  // namespace

// ----------------------------------------------------------- public API

const char* WireModeName(WireMode mode) {
  switch (mode) {
    case WireMode::kText: return "text";
    case WireMode::kFramed: return "framed";
  }
  return "?";
}

StatusOr<WireMode> ParseWireMode(const std::string& name) {
  if (name == "text") return WireMode::kText;
  if (name == "framed") return WireMode::kFramed;
  return Status::InvalidArgument("mode must be text or framed, got '" + name +
                                 "'");
}

std::string DescribeQuery(const QueryRequest& query) {
  return query.graph + " k=" + std::to_string(query.k) +
         " q=" + std::to_string(query.q) + " algo=" +
         QueryAlgoName(query.algo) +
         (query.HasSeedRange()
              ? " seeds=" + FormatSeedRangeValue(
                                    {query.seed_begin, query.seed_end})
              : "");
}

StatusOr<SeedRange> ParseSeedRangeText(const std::string& value) {
  auto range = ParseSeedRangeValue("seed-range", value);
  if (!range.ok()) return range.status();
  return SeedRange{range->first, range->second};
}

bool IsBlankOrComment(const std::string& line) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    return c == '#';
  }
  return true;
}

// ------------------------------------------------------------- text parse

StatusOr<Request> ParseTextRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    return Status::InvalidArgument("blank or comment line");
  }
  auto found = FindVerb(tokens[0], /*text=*/true);
  if (!found.ok()) return found.status();
  const Verb& verb = **found;
  auto usage = [&] {
    return Status::InvalidArgument("usage: " + tokens[0] + verb.usage);
  };
  std::size_t required = 0, positionals = 0;
  for (const Field& field : verb.fields) {
    required += field.form == kPos;
    positionals += field.form == kPos || field.form == kOptPos;
  }
  if (tokens.size() - 1 < required) return usage();
  // Pair each token after the positionals with the field spelling it.
  // A verb with positionals refuses a wrong shape before reading values.
  const std::size_t first = std::min(tokens.size(), 1 + positionals);
  std::vector<const Field*> spelled;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string key = SplitKeyValue(tokens[i]).first;
    const Field* match = nullptr;
    for (const Field& field : verb.fields) {
      if (field.text != nullptr &&
          ((field.form == kOpt && key == field.text) ||
           (field.form == kWord && tokens[i] == field.text))) {
        match = &field;
      }
    }
    if (match == nullptr && verb.unknown == Unknown::kUsage &&
        positionals > 0) {
      return usage();
    }
    spelled.push_back(match);
  }
  RequestPayload payload = verb.prototype;
  for (std::size_t i = 1; i < first; ++i) {
    const Field& field = verb.fields[i - 1];
    KPLEX_RETURN_IF_ERROR(field.ops->FromText(payload, field.text, tokens[i]));
  }
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto [key, value] = SplitKeyValue(tokens[i]);
    const Field* field = spelled[i - first];
    if (field != nullptr) {
      KPLEX_RETURN_IF_ERROR(field->ops->FromText(
          payload, field->text, field->form == kWord ? "on" : value));
    } else if (verb.unknown == Unknown::kUsage) {
      return usage();
    } else if (verb.unknown != Unknown::kIgnored) {
      return Status::InvalidArgument(
          "unknown " + tokens[0] + " option '" +
          (verb.unknown == Unknown::kKey ? key : tokens[i]) + "'");
    }
  }
  if (verb.check) KPLEX_RETURN_IF_ERROR(verb.check(payload));
  Request request;
  request.payload = std::move(payload);
  return request;
}

// ------------------------------------------------------------ text format

std::string FormatTextRequest(const Request& request) {
  const Verb& verb = VerbOf(request.payload);
  const RequestPayload& payload = request.payload;
  std::string line = verb.name;
  for (const Field& field : verb.fields) {
    if (field.text == nullptr || field.ops->Omitted(payload)) continue;
    line += ' ';
    if (field.form == kOpt || field.form == kWord) line += field.text;
    if (field.form == kOpt) line += '=';
    if (field.form != kWord) line += field.ops->ToText(payload);
  }
  return line;
}

void FormatTextResponse(const Response& response, std::ostream& out) {
  struct Visitor {
    std::ostream& out;

    void operator()(const HelloResponse& hello) const {
      // A hello rendered by the text formatter means the session is in
      // (or just switched to) text mode.
      out << "hello proto=" << hello.version << " mode="
          << WireModeName(hello.mode.value_or(WireMode::kText)) << "\n";
    }
    void operator()(const LoadResponse& loaded) const {
      out << "loaded " << loaded.name << ": " << loaded.num_vertices
          << " vertices, " << loaded.num_edges << " edges (";
      if (loaded.dataset_key.empty()) {
        out << FormatSeconds(loaded.load_seconds) << "s";
      } else {
        out << "dataset " << loaded.dataset_key;
      }
      out << ")\n";
    }
    void operator()(const SnapshotResponse& snapshot) const {
      out << "snapshot " << snapshot.name << " -> " << snapshot.path
          << (snapshot.with_precompute ? " (with precompute sections)" : "")
          << "\n";
    }
    void operator()(const MineResponse& mine) const {
      WriteJobOutcome(out, mine.job, "");
    }
    void operator()(const SubmitResponse& submit) const {
      out << "job " << submit.job << " submitted: mine "
          << DescribeQuery(submit.query) << "\n";
    }
    void operator()(const ShardResultResponse& shard) const {
      WriteShardOutcome(out, shard);
    }
    void operator()(const PlanResponse& plan) const {
      out << "plan " << plan.graph << ": " << plan.total_seeds
          << " seeds, degeneracy " << plan.degeneracy << ", hash "
          << HexFingerprint(plan.content_hash) << ", "
          << FormatSeconds(plan.seconds) << "s";
      if (plan.precomputed) out << " [precomputed reduction]";
      out << "\n";
      // One line per seed keeps the text rendering greppable; the
      // framed codec carries the arrays wholesale.
      for (std::size_t i = 0; i < plan.degrees.size(); ++i) {
        out << "seed " << i << " degree=" << plan.degrees[i]
            << " coreness=" << plan.coreness[i] << "\n";
      }
    }
    void operator()(const ShardSubmitResponse& shard) const {
      out << "shard job " << shard.job << " submitted, hash "
          << HexFingerprint(shard.content_hash) << "\n";
    }
    void operator()(const ShardStopResponse& stop) const {
      out << "yield requested for job " << stop.job << "\n";
    }
    void operator()(const WorkerAckResponse& ack) const {
      out << "worker " << ack.worker << " " << ack.state << "\n";
    }
    void operator()(const WorkersResponse& workers) const {
      TablePrinter table({"id", "endpoint", "state", "done", "failed"});
      for (const WorkerInfo& info : workers.workers) {
        table.AddRow({std::to_string(info.id), info.endpoint, info.state,
                      FormatCount(info.chunks_done),
                      FormatCount(info.chunks_failed)});
      }
      table.Print(out);
    }
    void operator()(const ResultChunkResponse& chunk) const {
      out << "chunk " << chunk.seq;
      if (chunk.last) out << " last";
      out << ":";
      for (std::size_t i = 0; i < chunk.plexes.size(); ++i) {
        out << (i == 0 ? " " : " | ");
        const std::vector<VertexId>& plex = chunk.plexes[i];
        for (std::size_t j = 0; j < plex.size(); ++j) {
          if (j > 0) out << " ";
          out << plex[j];
        }
      }
      out << "\n";
    }
    void operator()(const CancelResponse& cancel) const {
      out << "cancel requested for job " << cancel.job << "\n";
    }
    void operator()(const JobsResponse& jobs) const {
      TablePrinter table({"id", "query", "state", "plexes", "seconds"});
      for (const JobInfo& info : jobs.jobs) {
        const bool has_result =
            info.state == JobState::kDone ||
            (info.state == JobState::kCancelled && info.started);
        table.AddRow({std::to_string(info.id), DescribeQuery(info.request),
                      JobStateName(info.state),
                      has_result ? FormatCount(info.result.num_plexes) : "-",
                      has_result ? FormatSeconds(info.result.seconds) : "-"});
      }
      table.Print(out);
    }
    void operator()(const WaitResponse& wait) const {
      WriteJobOutcome(out, wait.job,
                      "job " + std::to_string(wait.job.id) + ": ");
    }
    void operator()(const WaitAllResponse& all) const {
      out << "all jobs finished: " << all.counts.done << " done, "
          << all.counts.cancelled << " cancelled, " << all.counts.failed
          << " failed\n";
    }
    void operator()(const StatsResponse& stats) const {
      TablePrinter graphs({"name", "source", "resident", "vertices", "edges",
                           "owned", "mapped", "precompute", "hash",
                           "loads"});
      for (const auto& info : stats.graphs) {
        graphs.AddRow({info.name, info.source, info.resident ? "yes" : "no",
                       FormatCount(info.num_vertices),
                       FormatCount(info.num_edges),
                       HumanBytes(info.memory_bytes),
                       HumanBytes(info.mapped_bytes), info.precompute,
                       info.content_hash != 0
                           ? HexFingerprint(info.content_hash)
                           : "-",
                       FormatCount(info.loads)});
      }
      graphs.Print(out);
      out << "resident: " << HumanBytes(stats.resident_bytes) << " owned";
      if (stats.memory_budget_bytes > 0) {
        out << " / budget " << HumanBytes(stats.memory_budget_bytes);
      }
      out << " + " << HumanBytes(stats.mapped_resident_bytes)
          << " mapped (zero-copy, budget-exempt)\n";
      out << "result cache: " << stats.cache.entries << "/"
          << stats.cache.capacity << " entries, " << stats.cache.hits
          << " hits, " << stats.cache.misses << " misses\n";
      out << "dispatcher: " << stats.workers << " worker(s), "
          << stats.jobs.queued << " queued, " << stats.jobs.running
          << " running, "
          << (stats.jobs.done + stats.jobs.cancelled + stats.jobs.failed)
          << " finished\n";
      WriteStoreStatusLine(out, stats.store);
    }
    void operator()(const MetricsResponse& metrics) const {
      // Deterministic framing for the multi-line body: a header line
      // that announces exactly how many lines follow, so text clients
      // (tools/metrics_smoke.py, kplex_cli metrics) can read the whole
      // scrape without sentinels.
      if (metrics.format == "prom") {
        const std::string body = RenderMetricsPrometheus(metrics.snapshot);
        std::size_t lines = 0;
        for (char c : body) {
          if (c == '\n') ++lines;
        }
        out << "metrics prom " << lines << " lines\n" << body;
      } else {
        out << "metrics " << metrics.snapshot.SeriesCount() << " series\n"
            << RenderMetricsText(metrics.snapshot);
      }
    }
    void operator()(const EvictResponse& evict) const {
      out << "evicted " << evict.name << "\n";
    }
    void operator()(const StoreResponse& store) const {
      if (store.evicted) {
        out << "store evicted: " << store.evicted_entries << " entries, "
            << HumanBytes(static_cast<std::size_t>(store.evicted_bytes))
            << " freed\n";
      }
      WriteStoreStatusLine(out, store.info);
    }
    void operator()(const HelpResponse&) const { out << kHelpText; }
    void operator()(const ByeResponse&) const {}  // quit prints nothing
    void operator()(const ErrorResponse& error) const {
      out << "error: " << error.status.ToString() << "\n";
    }
  };
  std::visit(Visitor{out}, response.payload);
}

// ----------------------------------------------------------- framed parse

StatusOr<Request> ParseFramedRequest(const std::string& line,
                                     uint64_t* error_id) {
  if (error_id != nullptr) *error_id = 0;
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "malformed frame: expected a JSON object");
  }
  const JsonValue& frame = *parsed;

  Request request;
  const JsonValue* id = frame.Find("id");
  if (id != nullptr) {
    auto value = GetUint(*id, "id");
    if (!value.ok()) return value.status();
    request.id = *value;
    // Publish the id before command validation: a rejected frame still
    // gets a correlated error response.
    if (error_id != nullptr) *error_id = request.id;
  }
  const JsonValue* cmd_field = frame.Find("cmd");
  if (cmd_field == nullptr) {
    return Status::InvalidArgument("frame is missing the 'cmd' field");
  }
  auto cmd = GetString(*cmd_field, "cmd");
  if (!cmd.ok()) return cmd.status();

  auto found = FindVerb(*cmd, /*text=*/false);
  if (!found.ok()) return found.status();
  const Verb& verb = **found;
  RequestPayload payload = verb.prototype;
  std::vector<bool> seen(verb.fields.size(), false);
  for (const auto& [key, value] : frame.object) {
    if (key == "id" || key == "cmd") continue;
    auto field = std::find_if(
        verb.fields.begin(), verb.fields.end(),
        [&](const Field& f) { return f.json != nullptr && key == f.json; });
    if (field == verb.fields.end()) return UnknownField(verb.name, key);
    KPLEX_RETURN_IF_ERROR(field->ops->FromJson(payload, field->json, value));
    seen[field - verb.fields.begin()] = true;
  }
  // Required fields must be present and non-empty ("name":"" is as good
  // as missing).
  std::string names;
  std::size_t count = 0;
  bool missing = false;
  for (std::size_t i = 0; i < verb.fields.size(); ++i) {
    if (verb.fields[i].form != kPos) continue;
    names += (count++ > 0 ? ", " : " ") + std::string(verb.fields[i].json);
    missing =
        missing || !seen[i] || verb.fields[i].ops->ToText(payload).empty();
  }
  if (missing) {
    return Status::InvalidArgument("'" + std::string(verb.name) +
                                   "' requires field" +
                                   (count > 1 ? "s" : "") + names);
  }
  if (verb.check) KPLEX_RETURN_IF_ERROR(verb.check(payload));
  request.payload = std::move(payload);
  return request;
}

// ---------------------------------------------------------- framed format

std::string FormatFramedRequest(const Request& request) {
  JsonWriter json;
  json.BeginObject();
  if (request.id != 0) json.Add("id", request.id);
  const Verb& verb = VerbOf(request.payload);
  const RequestPayload& payload = request.payload;
  json.Add("cmd", verb.name);
  for (const Field& field : verb.fields) {
    if (field.json != nullptr && !field.ops->Omitted(payload)) {
      field.ops->ToJson(payload, field.json, json);
    }
  }
  json.EndObject();
  return json.str();
}

// Nested "store" object shared by the framed stats and store frames.
void WriteStoreStatusObject(JsonWriter& json, const StoreStatusInfo& info) {
  json.BeginObjectValue("store");
  json.Add("enabled", info.enabled);
  if (info.enabled) {
    json.Add("entries", info.entries);
    json.Add("bytes", info.bytes);
    json.Add("budget_bytes", info.byte_budget);
    json.Add("hits", info.hits);
    json.Add("misses", info.misses);
    json.Add("writes", info.writes);
    json.Add("evictions", info.evictions);
    json.Add("corrupt", info.corrupt_entries);
  }
  json.EndObject();
}

std::string FormatFramedResponse(const Response& response) {
  JsonWriter json;
  json.BeginObject();
  json.Add("id", response.request_id);
  json.Add("ok",
           !std::holds_alternative<ErrorResponse>(response.payload));

  struct Visitor {
    JsonWriter& json;

    void operator()(const HelloResponse& hello) const {
      json.Add("type", "hello");
      json.Add("proto", hello.version);
      // A framed-rendered hello means the session is in (or just
      // switched to) framed mode.
      json.Add("mode", WireModeName(hello.mode.value_or(WireMode::kFramed)));
    }
    void operator()(const LoadResponse& loaded) const {
      json.Add("type", "load");
      json.Add("name", loaded.name);
      json.Add("vertices", loaded.num_vertices);
      json.Add("edges", loaded.num_edges);
      json.Add("seconds", loaded.load_seconds);
      if (!loaded.dataset_key.empty()) {
        json.Add("dataset", loaded.dataset_key);
      }
    }
    void operator()(const SnapshotResponse& snapshot) const {
      json.Add("type", "snapshot");
      json.Add("name", snapshot.name);
      json.Add("path", snapshot.path);
      json.Add("precompute", snapshot.with_precompute);
    }
    void operator()(const MineResponse& mine) const {
      json.Add("type", "mine");
      WriteJobFields(json, mine.job);
    }
    void operator()(const SubmitResponse& submit) const {
      json.Add("type", "submitted");
      json.Add("job", submit.job);
      WriteQueryObject(json, "query", submit.query);
    }
    void operator()(const ShardResultResponse& shard) const {
      json.Add("type", "shard_result");
      WriteJobFields(json, shard.job);
      const bool has_result =
          shard.job.state == JobState::kDone ||
          (shard.job.state == JobState::kCancelled && shard.job.started);
      if (has_result) {
        // The mergeable extras beyond the common job fields: the raw
        // XOR half and the seed-space size (coordinator planning).
        json.Add("fingerprint_xor",
                 HexFingerprint(shard.job.result.fingerprint_xor));
        json.Add("total_seeds", shard.job.result.total_seeds);
        // Yield outcome (v5 work-stealing) — additive fields, only on
        // shard_result frames: a yielded shard answers its covered
        // prefix completely; the coordinator re-issues the rest.
        if (shard.job.result.yielded) {
          json.Add("yielded", true);
          json.Add("covered_begin", shard.job.result.covered_begin);
          json.Add("covered_end", shard.job.result.covered_end);
        }
      }
      json.Add("content_hash", HexFingerprint(shard.content_hash));
    }
    void operator()(const PlanResponse& plan) const {
      json.Add("type", "plan");
      json.Add("graph", plan.graph);
      json.Add("total_seeds", plan.total_seeds);
      json.Add("content_hash", HexFingerprint(plan.content_hash));
      json.Add("degeneracy", plan.degeneracy);
      json.Add("precomputed", plan.precomputed);
      json.Add("seconds", plan.seconds);
      json.BeginArray("degrees");
      for (uint32_t degree : plan.degrees) json.AddElement(degree);
      json.EndArray();
      json.BeginArray("coreness");
      for (uint32_t coreness : plan.coreness) json.AddElement(coreness);
      json.EndArray();
    }
    void operator()(const ShardSubmitResponse& shard) const {
      json.Add("type", "shard_submitted");
      json.Add("job", shard.job);
      json.Add("content_hash", HexFingerprint(shard.content_hash));
    }
    void operator()(const ShardStopResponse& stop) const {
      json.Add("type", "shard_stopping");
      json.Add("job", stop.job);
    }
    void operator()(const WorkerAckResponse& ack) const {
      json.Add("type", "worker_ack");
      json.Add("worker", ack.worker);
      json.Add("state", ack.state);
    }
    void operator()(const WorkersResponse& workers) const {
      json.Add("type", "workers");
      json.BeginArray("workers");
      for (const WorkerInfo& info : workers.workers) {
        json.BeginArrayElementObject();
        json.Add("worker", info.id);
        json.Add("endpoint", info.endpoint);
        json.Add("state", info.state);
        json.Add("chunks_done", info.chunks_done);
        json.Add("chunks_failed", info.chunks_failed);
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const ResultChunkResponse& chunk) const {
      json.Add("type", "result_chunk");
      json.Add("job", chunk.job);
      json.Add("seq", chunk.seq);
      json.Add("last", chunk.last);
      json.BeginArray("plexes");
      for (const std::vector<VertexId>& plex : chunk.plexes) {
        json.BeginArrayElementArray();
        for (VertexId v : plex) json.AddElement(v);
        json.EndArray();
      }
      json.EndArray();
    }
    void operator()(const CancelResponse& cancel) const {
      json.Add("type", "cancelling");
      json.Add("job", cancel.job);
    }
    void operator()(const JobsResponse& jobs) const {
      json.Add("type", "jobs");
      json.BeginArray("jobs");
      for (const JobInfo& info : jobs.jobs) {
        json.BeginArrayElementObject();
        WriteJobFields(json, info);
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const WaitResponse& wait) const {
      json.Add("type", "wait");
      WriteJobFields(json, wait.job);
    }
    void operator()(const WaitAllResponse& all) const {
      json.Add("type", "wait_all");
      json.Add("done", all.counts.done);
      json.Add("cancelled", all.counts.cancelled);
      json.Add("failed", all.counts.failed);
      json.BeginArray("failed_jobs");
      for (uint64_t id : all.failed_jobs) json.AddElement(id);
      json.EndArray();
    }
    void operator()(const StatsResponse& stats) const {
      json.Add("type", "stats");
      json.BeginArray("graphs");
      for (const CatalogEntryInfo& info : stats.graphs) {
        json.BeginArrayElementObject();
        json.Add("name", info.name);
        json.Add("source", info.source);
        json.Add("resident", info.resident);
        json.Add("evictable", info.evictable);
        json.Add("mapped", info.mapped);
        json.Add("vertices", info.num_vertices);
        json.Add("edges", info.num_edges);
        json.Add("owned_bytes", info.memory_bytes);
        json.Add("mapped_bytes", info.mapped_bytes);
        json.Add("precompute", info.precompute);
        if (info.content_hash != 0) {
          json.Add("content_hash", HexFingerprint(info.content_hash));
        }
        json.Add("loads", info.loads);
        json.Add("load_seconds", info.last_load_seconds);
        json.EndObject();
      }
      json.EndArray();
      json.Add("resident_bytes", stats.resident_bytes);
      json.Add("mapped_resident_bytes", stats.mapped_resident_bytes);
      json.Add("budget_bytes", stats.memory_budget_bytes);
      json.BeginObjectValue("cache");
      json.Add("entries", stats.cache.entries);
      json.Add("capacity", stats.cache.capacity);
      json.Add("hits", stats.cache.hits);
      json.Add("misses", stats.cache.misses);
      json.EndObject();
      json.BeginObjectValue("dispatcher");
      json.Add("workers", stats.workers);
      json.Add("queued", stats.jobs.queued);
      json.Add("running", stats.jobs.running);
      json.Add("done", stats.jobs.done);
      json.Add("cancelled", stats.jobs.cancelled);
      json.Add("failed", stats.jobs.failed);
      json.EndObject();
      WriteStoreStatusObject(json, stats.store);
    }
    void operator()(const MetricsResponse& metrics) const {
      json.Add("type", "metrics");
      json.BeginArray("counters");
      for (const CounterSample& counter : metrics.snapshot.counters) {
        json.BeginArrayElementObject();
        json.Add("name", counter.name);
        json.Add("value", counter.value);
        json.EndObject();
      }
      json.EndArray();
      json.BeginArray("gauges");
      for (const GaugeSample& gauge : metrics.snapshot.gauges) {
        json.BeginArrayElementObject();
        json.Add("name", gauge.name);
        json.Add("value", gauge.value);
        json.EndObject();
      }
      json.EndArray();
      json.BeginArray("histograms");
      for (const HistogramSample& histogram : metrics.snapshot.histograms) {
        json.BeginArrayElementObject();
        json.Add("name", histogram.name);
        json.Add("count", histogram.count);
        json.Add("sum", histogram.sum);
        json.Add("p50", histogram.p50);
        json.Add("p95", histogram.p95);
        json.Add("p99", histogram.p99);
        json.BeginArray("le");
        for (double bound : histogram.bounds) json.AddElement(bound);
        json.EndArray();
        json.BeginArray("buckets");
        for (uint64_t count : histogram.buckets) json.AddElement(count);
        json.EndArray();
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const EvictResponse& evict) const {
      json.Add("type", "evicted");
      json.Add("name", evict.name);
    }
    void operator()(const StoreResponse& store) const {
      json.Add("type", "store");
      json.Add("evicted", store.evicted);
      if (store.evicted) {
        json.Add("evicted_entries", store.evicted_entries);
        json.Add("evicted_bytes", store.evicted_bytes);
      }
      WriteStoreStatusObject(json, store.info);
    }
    void operator()(const HelpResponse&) const {
      json.Add("type", "help");
      json.Add("text", kHelpText);
    }
    void operator()(const ByeResponse&) const { json.Add("type", "bye"); }
    void operator()(const ErrorResponse& error) const {
      json.Add("type", "error");
      json.Add("code", StatusCodeName(error.status.code()));
      json.Add("message", error.status.message());
    }
  };
  std::visit(Visitor{json}, response.payload);
  json.EndObject();
  return json.str();
}

// ----------------------------------------------- framed client decode

namespace {

/// The Status a {"code":...,"message":...} object carries (code restored
/// via StatusCodeFromName; INTERNAL and `fallback` fill missing parts).
Status ErrorObjectStatus(const JsonValue& object,
                         const std::string& fallback) {
  const JsonValue* code = object.Find("code");
  const JsonValue* message = object.Find("message");
  return Status(code != nullptr && code->kind == JsonValue::Kind::kString
                    ? StatusCodeFromName(code->string_value)
                    : StatusCode::kInternal,
                message != nullptr && message->kind == JsonValue::Kind::kString
                    ? message->string_value
                    : fallback);
}

StatusOr<uint64_t> GetUint64(const JsonValue& value, const std::string& key) {
  return GetUint(value, key);
}

StatusOr<uint64_t> GetHex(const JsonValue& value, const std::string& key) {
  auto text = GetString(value, key);
  if (!text.ok()) return text.status();
  return ParseHexU64(key, *text);
}

/// Optional-field reader: an absent field keeps the default.
template <typename T, typename Get>
Status ReadField(const JsonValue& frame, const char* key, T* out, Get get) {
  const JsonValue* value = frame.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = get(*value, key);
  if (!parsed.ok()) return parsed.status();
  *out = static_cast<T>(*parsed);
  return Status::Ok();
}

/// Parses a framed response line into its JSON object, surfacing
/// {"ok":false,...} frames as the embedded structured Status. Requires
/// frame["type"] == type and reads the correlation id when asked to.
StatusOr<JsonValue> ParseResponseFrame(const std::string& line,
                                       const char* type = nullptr,
                                       uint64_t* request_id = nullptr) {
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "malformed frame: expected a JSON object");
  }
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    return Status::InvalidArgument(
        "response frame is missing the 'ok' field");
  }
  if (!ok->bool_value) {
    return ErrorObjectStatus(*parsed, "unspecified server error");
  }
  const JsonValue* got = parsed->Find("type");
  if (type != nullptr &&
      (got == nullptr || got->kind != JsonValue::Kind::kString ||
       got->string_value != type)) {
    return Status::InvalidArgument(
        std::string("expected a '") + type + "' frame, got '" +
        (got != nullptr && got->kind == JsonValue::Kind::kString
             ? got->string_value
             : "?") +
        "'");
  }
  if (request_id != nullptr) {
    KPLEX_RETURN_IF_ERROR(ReadField(*parsed, "id", request_id, GetUint64));
  }
  return parsed;
}

/// Decodes the job fields a mine and a shard_result frame share. A
/// failed job travels inside an ok frame (state + error); it comes back
/// as that error, like any other failure.
template <typename Parsed>
StatusOr<JsonValue> ParseJobFrame(const std::string& line, const char* type,
                                  const char* failed, Parsed* out) {
  auto frame = ParseResponseFrame(line, type, &out->request_id);
  if (!frame.ok()) return frame;
  const JsonValue* state = frame->Find("state");
  if (state == nullptr || state->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument(std::string(type) +
                                   " frame is missing 'state'");
  }
  out->state = state->string_value;
  if (out->state == "failed") {
    const JsonValue* error = frame->Find("error");
    if (error != nullptr && error->kind == JsonValue::Kind::kObject) {
      return ErrorObjectStatus(*error, failed);
    }
    return Status::Internal(failed);
  }
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "plexes", &out->plexes, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "max_size", &out->max_size, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "fingerprint", &out->fingerprint, GetHex));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "seconds", &out->seconds, GetDouble));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "timed_out", &out->timed_out, GetBool));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "stopped_early", &out->stopped_early, GetBool));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "cancelled", &out->cancelled, GetBool));
  return frame;
}

}  // namespace

StatusOr<uint32_t> ParseFramedHelloVersion(const std::string& line) {
  auto frame = ParseResponseFrame(line, "hello");
  if (!frame.ok()) return frame.status();
  const JsonValue* proto = frame->Find("proto");
  if (proto == nullptr) {
    return Status::InvalidArgument("hello frame is missing 'proto'");
  }
  return UintCodec<uint32_t>().parse_json("proto", *proto);
}

StatusOr<ParsedShardResult> ParseFramedShardResult(const std::string& line) {
  ParsedShardResult result;
  auto frame =
      ParseJobFrame(line, "shard_result", "shard job failed", &result);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "total_seeds", &result.total_seeds, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "fingerprint_xor", &result.fingerprint_xor, GetHex));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "content_hash", &result.content_hash, GetHex));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "yielded", &result.yielded, GetBool));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "covered_begin", &result.covered_begin, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "covered_end", &result.covered_end, GetUint64));
  return result;
}

StatusOr<ParsedPlan> ParseFramedPlan(const std::string& line) {
  ParsedPlan plan;
  auto frame = ParseResponseFrame(line, "plan", &plan.request_id);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "total_seeds", &plan.total_seeds, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "content_hash", &plan.content_hash, GetHex));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "degeneracy", &plan.degeneracy, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "precomputed", &plan.precomputed, GetBool));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "seconds", &plan.seconds, GetDouble));
  for (const char* key : {"degrees", "coreness"}) {
    const JsonValue* array = frame->Find(key);
    if (array == nullptr || array->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(std::string("plan frame is missing the '") +
                                     key + "' array");
    }
    KPLEX_RETURN_IF_ERROR(ReadField(
        *frame, key,
        std::string(key) == "degrees" ? &plan.degrees : &plan.coreness,
        GetUint32Array));
  }
  if (plan.degrees.size() != plan.coreness.size()) {
    return Status::InvalidArgument(
        "plan frame arrays disagree on seed count");
  }
  return plan;
}

StatusOr<ParsedShardSubmit> ParseFramedShardSubmit(const std::string& line) {
  ParsedShardSubmit submit;
  auto frame = ParseResponseFrame(line, "shard_submitted", &submit.request_id);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "job", &submit.job, GetUint64));
  KPLEX_RETURN_IF_ERROR(
      ReadField(*frame, "content_hash", &submit.content_hash, GetHex));
  return submit;
}

StatusOr<uint64_t> ParseFramedShardStop(const std::string& line) {
  auto frame = ParseResponseFrame(line, "shard_stopping");
  if (!frame.ok()) return frame.status();
  uint64_t job = 0;
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "job", &job, GetUint64));
  return job;
}

StatusOr<ParsedWorkerAck> ParseFramedWorkerAck(const std::string& line) {
  ParsedWorkerAck ack;
  auto frame = ParseResponseFrame(line, "worker_ack", &ack.request_id);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "worker", &ack.worker, GetUint64));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "state", &ack.state, GetString));
  return ack;
}

StatusOr<std::string> PeekFramedResponseType(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  const JsonValue* type = frame->Find("type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("response frame is missing 'type'");
  }
  return type->string_value;
}

StatusOr<ParsedResultChunk> ParseFramedResultChunk(const std::string& line) {
  ParsedResultChunk chunk;
  auto frame = ParseResponseFrame(line, "result_chunk", &chunk.request_id);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "job", &chunk.job, GetUint64));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "seq", &chunk.seq, GetUint64));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "last", &chunk.last, GetBool));
  const JsonValue* plexes = frame->Find("plexes");
  if (plexes == nullptr || plexes->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "result_chunk frame is missing the 'plexes' array");
  }
  chunk.plexes.reserve(plexes->array.size());
  for (const JsonValue& plex : plexes->array) {
    if (plex.kind != JsonValue::Kind::kArray) {
      return WrongType("plexes", "an array of vertex-id arrays");
    }
    auto vertices = GetUint32Array(plex, "plexes");
    if (!vertices.ok()) return vertices.status();
    chunk.plexes.push_back(*std::move(vertices));
  }
  return chunk;
}

StatusOr<ParsedMineResult> ParseFramedMineResult(const std::string& line) {
  ParsedMineResult result;
  auto frame = ParseJobFrame(line, "mine", "mine job failed", &result);
  if (!frame.ok()) return frame.status();
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "bodies", &result.bodies, GetUint64));
  KPLEX_RETURN_IF_ERROR(ReadField(*frame, "cached", &result.cached, GetBool));
  const JsonValue* cursor = frame->Find("cursor");
  if (cursor != nullptr) {
    auto text = GetString(*cursor, "cursor");
    if (!text.ok()) return text.status();
    auto parsed = ParseCursorValue("cursor", *text);
    if (!parsed.ok()) return parsed.status();
    std::tie(result.cursor_seed, result.cursor_ordinal) = *parsed;
    result.has_cursor = true;
  }
  return result;
}

StatusOr<ResumeCursor> ParseCursorText(const std::string& value) {
  auto cursor = ParseCursorValue("cursor", value);
  if (!cursor.ok()) return cursor.status();
  return ResumeCursor{cursor->first, cursor->second};
}

std::string FormatCursorValue(uint32_t seed, uint64_t ordinal) {
  return std::to_string(seed) + ":" + std::to_string(ordinal);
}

const char* RequestVerbName(const RequestPayload& payload) {
  return VerbOf(payload).name;
}

// ---------------------------------------------------------- error hygiene

std::string SanitizeErrorMessage(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  std::size_t i = 0;
  while (i < message.size()) {
    const bool at_boundary =
        i == 0 || !(std::isalnum(static_cast<unsigned char>(message[i - 1])) ||
                    message[i - 1] == '.' || message[i - 1] == '_' ||
                    message[i - 1] == '-' || message[i - 1] == '/');
    if (message[i] != '/' || !at_boundary) {
      out += message[i++];
      continue;
    }
    // An absolute path token: consume up to whitespace/quote/paren and
    // keep only its last non-empty component.
    const std::size_t start = i;
    while (i < message.size()) {
      const char c = message[i];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '\'' ||
          c == '"' || c == ')' || c == '(' || c == ',' || c == ';') {
        break;
      }
      ++i;
    }
    std::string token = message.substr(start, i - start);
    while (!token.empty() && token.back() == '/') token.pop_back();
    const std::size_t slash = token.find_last_of('/');
    std::string base =
        slash == std::string::npos ? token : token.substr(slash + 1);
    out += base.empty() ? "/" : base;
  }
  return out;
}

Status SanitizeErrorStatus(const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), SanitizeErrorMessage(status.message()));
}

}  // namespace kplex
