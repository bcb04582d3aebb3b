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

/// A seed range (begin, end) as the wire's "B:E" value pair.
using SeedPair = std::pair<uint32_t, uint32_t>;

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
    JsonValue value;
    KPLEX_RETURN_IF_ERROR(ParseValue(0, value));
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

  // Each Parse* fills `value` in place, so a value is built once, in
  // the tree.
  Status ParseValue(int depth, JsonValue& value) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth, value);
    if (c == '[') return ParseArray(depth, value);
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      return ParseString(value.string_value);
    }
    if (c == 't' || c == 'f' || c == 'n') return ParseLiteral(value);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber(value);
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  Status ParseObject(int depth, JsonValue& value) {
    ++pos_;  // '{'
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string key");
      }
      auto& [key, element] = value.object.emplace_back();
      KPLEX_RETURN_IF_ERROR(ParseString(key));
      if (!Consume(':')) return Error("expected ':' after key");
      KPLEX_RETURN_IF_ERROR(ParseValue(depth + 1, element));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, JsonValue& value) {
    ++pos_;  // '['
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      KPLEX_RETURN_IF_ERROR(ParseValue(depth + 1, value.array.emplace_back()));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  /// A string at pos_ (its opening quote) into `out`.
  Status ParseString(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      // Append the run of plain bytes up to the next quote, escape or
      // control byte at once.
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, start, pos_ - start);
      if (pos_ == text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') return Error("raw control byte in string");
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
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
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
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
  Status ParseLiteral(JsonValue& value) {
    for (std::string_view word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) != 0) continue;
      pos_ += word.size();
      value.kind = word == "null" ? JsonValue::Kind::kNull
                                  : JsonValue::Kind::kBool;
      value.bool_value = word == "true";
      return Status::Ok();
    }
    return Error(text_[pos_] == 'n' ? "expected null" : "expected true/false");
  }

  Status ParseNumber(JsonValue& value) {
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
    // Integers that overflow uint64 fall through to the double path.
    if (!fractional && token[0] != '-' &&
        std::from_chars(token.data(), token.data() + token.size(),
                        value.uint_value)
                .ec == std::errc()) {
      value.kind = JsonValue::Kind::kUint;
      return Status::Ok();
    }
    try {
      std::size_t used = 0;
      value.double_value = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      return Error("malformed number '" + token + "'");
    }
    value.kind = JsonValue::Kind::kDouble;
    return Status::Ok();
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

// ------------------------------------------------------------- field tables
// Every request verb is declared once, in RequestTable() below: its
// payload type, its fields in wire order, and its text usage line. The
// framed responses a client decodes are declared the same way, one
// Frame table each. Short drivers over the tables do the rest: the four
// request codecs (text and framed, parse and format), FormatFramedResponse
// for those frames, and the one response decoder. Each value type is
// read and written for both wires by one field codec.

/// How a field is spelled on the text wire. Positionals come first in a
/// verb's field list.
enum TextForm {
  kPos,     ///< by position after the verb; required
  kOptPos,  ///< by position, may be left off (`wait [ID]`)
  kOpt,     ///< `key=value` after the positionals
  kWord,    ///< a bare word after the positionals: bool true
};

/// How a field reads and writes its value in a record: a request
/// payload, or the record of a response frame. `key` is the field's
/// spelling on the wire at hand, for errors.
template <typename Record>
class FieldOps {
 public:
  FieldOps() = default;
  FieldOps(const FieldOps&) = delete;
  FieldOps& operator=(const FieldOps&) = delete;
  virtual ~FieldOps() = default;
  virtual Status FromText(Record& record, const char* key,
                          const std::string& token) const = 0;
  virtual Status FromJson(Record& record, const char* key,
                          const JsonValue& value) const = 0;
  /// True while the value equals the default record's.
  virtual bool IsDefault(const Record& record) const = 0;
  virtual std::string ToText(const Record& record) const = 0;
  virtual void ToJson(const Record& record, const char* key,
                      JsonWriter& json) const = 0;
};

/// One table row. `text` is the text key, the bare word, or the
/// positional's label in errors ("K", "ID"); `json` the framed key.
/// Either is null for a field only one wire carries (seed-range= is
/// seed_begin + seed_end on the framed wire; responses are framed only).
template <typename Record>
struct Field {
  const char* text;
  TextForm form;
  const char* json;
  std::shared_ptr<const FieldOps<Record>> ops;
  /// Written even at its default. In a response frame this also makes
  /// the key required: the decoder refuses a frame without it.
  bool always = false;
  /// When set, the row is written and read only for records it accepts
  /// (a job's result fields exist only once the job ran).
  bool (*when)(const Record&) = nullptr;
};

template <typename Record>
bool Omitted(const Field<Record>& field, const Record& record) {
  return (field.when != nullptr && !field.when(record)) ||
         (!field.always && field.ops->IsDefault(record));
}

/// Writes the framed keys of the rows `record` does not omit.
template <typename Record>
void WriteFields(JsonWriter& json, const std::vector<Field<Record>>& fields,
                 const Record& record) {
  for (const Field<Record>& field : fields) {
    if (field.json != nullptr && !Omitted(field, record)) {
      field.ops->ToJson(record, field.json, json);
    }
  }
}

/// Reads the framed keys of `fields` from `object` in row order, so a
/// row's `when` sees the rows before it. A missing `always` key is
/// refused, naming `what` and the key; keys no row names are ignored,
/// which keeps additive response fields compatible.
template <typename Record>
Status ReadFields(const JsonValue& object,
                  const std::vector<Field<Record>>& fields,
                  const std::string& what, Record& record) {
  for (const Field<Record>& field : fields) {
    if (field.json == nullptr ||
        (field.when != nullptr && !field.when(record))) {
      continue;
    }
    const JsonValue* value = object.Find(field.json);
    if (value != nullptr) {
      KPLEX_RETURN_IF_ERROR(field.ops->FromJson(record, field.json, *value));
    } else if (field.always) {
      return Status::InvalidArgument(what + " is missing '" + field.json +
                                     "'");
    }
  }
  return Status::Ok();
}

/// A field codec: the text token of a T, and — unless `parse_json` is
/// set, for native JSON numbers, booleans, arrays and objects — that
/// same token as a JSON string. `key` is the spelling on the wire at
/// hand. A framed-only value has no text parse or format.
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

/// A number; a non-null `check` holds it to a range.
Codec<double> NumberCodec(Status (*check)(const std::string& key,
                                          double value) = nullptr) {
  auto checked = [check](const std::string& key,
                         StatusOr<double> value) -> StatusOr<double> {
    if (value.ok() && check != nullptr) {
      KPLEX_RETURN_IF_ERROR(check(key, *value));
    }
    return value;
  };
  return {[=](const std::string& key, const std::string& text) {
            return checked(key, ParseDoubleValue(key, text));
          },
          CompactDouble,
          [=](const std::string& key, const JsonValue& value) {
            return checked(key, GetDouble(value, key));
          }};
}

/// A duration: time-limit (seconds) or tau-ms (milliseconds), held to
/// CheckQueryDuration's range.
Codec<double> DurationCodec() { return NumberCodec(CheckQueryDuration); }

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

/// The resume token "SEED:ORDINAL".
Codec<ResumeCursor> CursorCodec() {
  return TextCodec<ResumeCursor>(
      ParseCursorText, [](const ResumeCursor& cursor) {
        return FormatCursorValue(cursor.seed, cursor.ordinal);
      });
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

/// A JSON array of `element` values; framed only. `expected` names the
/// shape in errors.
template <typename T>
Codec<std::vector<T>> ListCodec(Codec<T> element, const char* expected) {
  return {nullptr, nullptr,
          [element, expected](const std::string& key, const JsonValue& value)
              -> StatusOr<std::vector<T>> {
            if (value.kind != JsonValue::Kind::kArray) {
              return WrongType(key, expected);
            }
            std::vector<T> list;
            list.reserve(value.array.size());
            for (const JsonValue& item : value.array) {
              auto parsed = element.parse_json(key, item);
              if (!parsed.ok()) return parsed.status();
              list.push_back(*std::move(parsed));
            }
            return list;
          }};
}

/// `C1,C2,...` on the text wire (snapshot levels); a JSON array.
Codec<std::vector<uint32_t>> Uint32ListCodec() {
  Codec<std::vector<uint32_t>> codec = TextCodec<std::vector<uint32_t>>(
      ParseCoreLevelList,
      [](const std::vector<uint32_t>& levels) {
        std::string list;
        for (uint32_t level : levels) {
          list += (list.empty() ? "" : ",") + std::to_string(level);
        }
        return list;
      });
  codec.parse_json =
      ListCodec(UintCodec<uint32_t>(), "an array of unsigned integers")
          .parse_json;
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

/// A 64-bit hash or fingerprint as its "0x%016x" string.
Codec<uint64_t> HexCodec() {
  return TextCodec<uint64_t>(ParseHexU64, HexFingerprint);
}

void WriteQueryObject(JsonWriter& json, const char* key,
                      const QueryRequest& query);
void WriteErrorFields(JsonWriter& json, const Status& status);

/// Writes a value whose codec has a native JSON form.
template <typename T>
void AddNativeJson(JsonWriter& json, const char* key, const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    json.Add(key, value);
  } else if constexpr (std::is_same_v<T, std::vector<uint32_t>>) {
    json.BeginArray(key);
    for (uint32_t element : value) json.AddElement(element);
    json.EndArray();
  } else if constexpr (std::is_same_v<T, std::vector<std::vector<VertexId>>>) {
    json.BeginArray(key);
    for (const std::vector<VertexId>& plex : value) {
      json.BeginArrayElementArray();
      for (VertexId v : plex) json.AddElement(v);
      json.EndArray();
    }
    json.EndArray();
  } else if constexpr (std::is_same_v<T, QueryRequest>) {
    WriteQueryObject(json, key, value);
  } else if constexpr (std::is_same_v<T, Status>) {
    json.BeginObjectValue(key);
    WriteErrorFields(json, value);
    json.EndObject();
  } else if constexpr (requires { *value; }) {
    AddNativeJson(json, key, *value);
  }
}

/// The record a field of type R lives in: the table's record itself,
/// the QueryRequest inside a mine-family payload, or the payload
/// alternative R.
template <typename R, typename Record>
auto& RecordOf(Record& record) {
  if constexpr (std::is_same_v<std::remove_const_t<Record>, R>) {
    return record;
  } else if constexpr (std::is_same_v<R, QueryRequest>) {
    std::conditional_t<std::is_const_v<Record>, const QueryRequest*,
                       QueryRequest*>
        query = nullptr;
    std::visit(
        [&query](auto& held) {
          if constexpr (requires { held.query; }) query = &held.query;
        },
        record);
    return *query;
  } else {
    return std::get<R>(record);
  }
}

/// `codec` reading and writing the value `get` returns and `set`
/// stores in the R inside a table's Record.
template <typename Record, typename R, typename T>
class Binding : public FieldOps<Record> {
 public:
  Binding(Codec<T> codec, std::function<T(const R&)> get,
          std::function<void(R&, T)> set)
      : codec_(std::move(codec)), get_(std::move(get)), set_(std::move(set)) {}

  Status FromText(Record& record, const char* key,
                  const std::string& token) const override {
    return Store(record, codec_.parse(key, token));
  }
  Status FromJson(Record& record, const char* key,
                  const JsonValue& value) const override {
    if (codec_.parse_json) return Store(record, codec_.parse_json(key, value));
    auto token = GetString(value, key);
    if (!token.ok()) return token.status();
    return Store(record, codec_.parse(key, *token));
  }
  bool IsDefault(const Record& record) const override {
    if constexpr (std::equality_comparable<T>) {
      static const R kDefaults{};
      return Value(record) == get_(kDefaults);
    } else {
      return false;  // only ever bound as an always-written row
    }
  }
  std::string ToText(const Record& record) const override {
    return codec_.format(Value(record));
  }
  void ToJson(const Record& record, const char* key,
              JsonWriter& json) const override {
    if (codec_.parse_json) {
      AddNativeJson(json, key, Value(record));
    } else {
      json.Add(key, codec_.format(Value(record)));
    }
  }

 private:
  T Value(const Record& record) const { return get_(RecordOf<R>(record)); }
  Status Store(Record& record, StatusOr<T> value) const {
    if (!value.ok()) return value.status();
    set_(RecordOf<R>(record), *std::move(value));
    return Status::Ok();
  }

  Codec<T> codec_;
  std::function<T(const R&)> get_;
  std::function<void(R&, T)> set_;
};

/// One row over a value `get` reads and `set` stores in the R inside
/// the table's Record. Positionals and `always` fields are always
/// written.
template <typename R, typename Record = RequestPayload, typename T>
Field<Record> BindVia(const char* text, TextForm form, const char* json,
                      Codec<T> codec,
                      std::type_identity_t<std::function<T(const R&)>> get,
                      std::type_identity_t<std::function<void(R&, T)>> set,
                      bool always = false) {
  return {text, form, json,
          std::make_shared<Binding<Record, R, T>>(
              std::move(codec), std::move(get), std::move(set)),
          always || form == kPos};
}

/// BindVia for a plain member.
template <typename Record = RequestPayload, typename R, typename T>
Field<Record> Bind(const char* text, TextForm form, const char* json,
                   T R::*member, Codec<T> codec, bool always = false) {
  return BindVia<R, Record, T>(
      text, form, json, std::move(codec),
      [member](const R& record) { return record.*member; },
      [member](R& record, T value) { record.*member = std::move(value); },
      always);
}

/// A response row over a plain member: framed only, and always written
/// (so required) unless `always` is false.
template <typename R, typename T>
Field<R> FrameKey(const char* json, T R::*member, Codec<T> codec,
                  bool always = true) {
  return Bind<R>(nullptr, kOpt, json, member, std::move(codec), always);
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
  std::vector<Field<RequestPayload>> fields;
  const char* usage = "";  ///< text usage after the verb name
  Unknown unknown = Unknown::kUsage;
  /// Cross-field validation after either codec read the fields.
  Status (*check)(const RequestPayload&) = nullptr;
  const char* text_alias = nullptr;  ///< `exit` for quit
};

/// The query options of mine / submit / mineshard / shardsubmit, in
/// wire order, over a request payload or a QueryRequest. A value behind
/// a presence flag (contain, cursor, the framed seed bounds) rides
/// std::optional: nullopt is exactly when the field is left out. The
/// `echo` a job or submitted frame carries is the run options with algo
/// always written: the rows up to seed_end, none of the selection.
template <typename Record>
std::vector<Field<Record>> QueryFields(bool echo = false) {
  using Q = QueryRequest;
  using U32 = std::optional<uint32_t>;
  const auto size_bound =
      UintCodec<uint64_t>(UINT64_MAX, "filter size bound must be >= 1");
  // seed_begin / seed_end: both framed whenever the range is a shard.
  auto seed_key = [](const char* json, uint32_t Q::*bound) {
    return BindVia<Q, Record>(
        nullptr, kOpt, json, Optional(UintCodec<uint32_t>()),
        [bound](const Q& q) {
          return q.HasSeedRange() ? U32(q.*bound) : U32();
        },
        [bound](Q& q, U32 value) { q.*bound = *value; });
  };
  std::vector<Field<Record>> fields = {
      Bind<Record>("NAME", kPos, "graph", &Q::graph, StringCodec()),
      Bind<Record>("K", kPos, "k", &Q::k, UintCodec<uint32_t>()),
      Bind<Record>("Q", kPos, "q", &Q::q, UintCodec<uint32_t>()),
      Bind<Record>("algo", kOpt, "algo", &Q::algo,
                   TextCodec<QueryAlgo>(ParseQueryAlgo, QueryAlgoName), echo),
      Bind<Record>("threads", kOpt, "threads", &Q::threads,
                   UintCodec<uint32_t>(kMaxQueryThreads)),
      Bind<Record>("max-results", kOpt, "max_results", &Q::max_results,
                   UintCodec<uint64_t>()),
      Bind<Record>("time-limit", kOpt, "time_limit", &Q::time_limit_seconds,
                   DurationCodec()),
      Bind<Record>("tau-ms", kOpt, "tau_ms", &Q::tau_ms, DurationCodec()),
      Bind<Record>("ctcp", kOpt, "ctcp", &Q::use_ctcp, OnOffCodec()),
      Bind<Record>("cache", kOpt, "cache", &Q::use_cache, OnOffCodec()),
      BindVia<Q, Record>(
          "seed-range", kOpt, nullptr,
          TextCodec<SeedPair>(ParseSeedRangeValue, FormatSeedRangeValue),
          [](const Q& q) { return SeedPair(q.seed_begin, q.seed_end); },
          [](Q& q, SeedPair range) {
            std::tie(q.seed_begin, q.seed_end) = range;
          }),
      seed_key("seed_begin", &Q::seed_begin),
      seed_key("seed_end", &Q::seed_end),
  };
  if (echo) return fields;
  std::vector<Field<Record>> selection = {
      Bind<Record>("results", kOpt, "results", &Q::collect_bodies,
                   ChoiceCodec("stream", "count", true)),
      Bind<Record>("chunk", kOpt, "chunk", &Q::chunk_size,
                   UintCodec<uint32_t>(65536, "chunk must be >= 1")),
      BindVia<Q, Record>(
          "filter", kOpt, nullptr, FilterCodec(),
          [](const Q& q) {
            return FilterBounds(q.filter_min_size, q.filter_max_size);
          },
          // Each filter= token sets only the bounds it names.
          [](Q& q, FilterBounds bounds) {
            if (bounds.first > 0) q.filter_min_size = bounds.first;
            if (bounds.second > 0) q.filter_max_size = bounds.second;
          }),
      Bind<Record>(nullptr, kOpt, "min_size", &Q::filter_min_size,
                   size_bound),
      Bind<Record>(nullptr, kOpt, "max_size", &Q::filter_max_size,
                   size_bound),
      BindVia<Q, Record>(
          "contain", kOpt, "contain", Optional(UintCodec<uint32_t>()),
          [](const Q& q) {
            return q.has_contain ? U32(q.contain) : std::nullopt;
          },
          [](Q& q, U32 vertex) {
            q.has_contain = true;
            q.contain = *vertex;
          }),
      Bind<Record>("top", kOpt, "top", &Q::top_k,
                   UintCodec<uint64_t>(UINT64_MAX, "top must be >= 1")),
      Bind<Record>("mode", kOpt, "mode", &Q::maximum,
                   ChoiceCodec("enumerate", "maximum", false)),
      BindVia<Q, Record>(
          "cursor", kOpt, "cursor", Optional(CursorCodec()),
          [](const Q& q) -> std::optional<ResumeCursor> {
            if (!q.has_cursor) return std::nullopt;
            return ResumeCursor{q.cursor_seed, q.cursor_ordinal};
          },
          [](Q& q, std::optional<ResumeCursor> cursor) {
            q.has_cursor = true;
            q.cursor_seed = cursor->seed;
            q.cursor_ordinal = cursor->ordinal;
          }),
  };
  fields.insert(fields.end(), selection.begin(), selection.end());
  return fields;
}

/// The QueryFields() rows a job or submitted frame echoes.
const std::vector<Field<QueryRequest>>& EchoFields() {
  static const std::vector<Field<QueryRequest>> fields =
      QueryFields<QueryRequest>(/*echo=*/true);
  return fields;
}

/// A mine-family verb: the query fields plus the shard verbs' `hash=`
/// admission check.
template <typename P>
Verb QueryVerb(const char* name) {
  Verb verb{name, P{}, QueryFields<RequestPayload>(),
            " NAME K Q [algo=...] [threads=N] [max-results=N] "
            "[time-limit=S] [tau-ms=T] [cache=on|off] [seed-range=B:E] "
            "[results=stream|count] [chunk=N] [filter=size>=S,size<=T] "
            "[contain=V] [top=K] [mode=enumerate|maximum] [cursor=S:O]",
            Unknown::kKey, [](const RequestPayload& payload) {
              return CheckQuery(RecordOf<QueryRequest>(payload));
            }};
  if constexpr (requires { &P::expected_hash; }) {
    verb.fields.push_back(
        Bind("hash", kOpt, "hash", &P::expected_hash, HexCodec()));
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
            "levels", kOpt, "levels", Uint32ListCodec(),
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

// --------------------------------------------------------- response frames

/// A response frame a client decodes: its type, its rows in wire order,
/// and a cross-field check the decoder runs after reading them.
template <typename Record>
struct Frame {
  const char* type;
  std::vector<Field<Record>> fields;
  Status (*check)(const Record&) = nullptr;
};

/// The response table: every frame a client decodes.
/// FormatFramedResponse writes each from its rows, and DecodeFrame reads
/// it back through the same rows.
struct ResponseTable {
  Frame<HelloResponse> hello;
  Frame<JobSummary> mine;  ///< its rows are also the wait and jobs fields
  Frame<JobSummary> shard_result;
  Frame<PlanResponse> plan;
  Frame<ShardSubmitResponse> shard_submitted;
  Frame<ShardStopResponse> shard_stopping;
  Frame<WorkerAckResponse> worker_ack;
  Frame<ResultChunkResponse> result_chunk;
};

/// A job's query as its framed echo.
void WriteQueryObject(JsonWriter& json, const char* key,
                      const QueryRequest& query) {
  json.BeginObjectValue(key);
  WriteFields(json, EchoFields(), query);
  json.EndObject();
}

void WriteErrorFields(JsonWriter& json, const Status& status) {
  json.Add("code", StatusCodeName(status.code()));
  json.Add("message", status.message());
}

/// The Status an error object {"code":...,"message":...} carries. An
/// unknown code name reads as INTERNAL (StatusCodeFromName), so a newer
/// server's errors still surface; a missing or mistyped key, or the
/// code OK, is INVALID_ARGUMENT.
Status ErrorObjectStatus(const JsonValue& object) {
  const JsonValue* code = object.Find("code");
  const JsonValue* message = object.Find("message");
  if (code == nullptr || code->kind != JsonValue::Kind::kString ||
      message == nullptr || message->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument(
        "error object needs string 'code' and 'message' fields");
  }
  const StatusCode parsed = StatusCodeFromName(code->string_value);
  if (parsed == StatusCode::kOk) {
    return Status::InvalidArgument("error object carries the code OK");
  }
  return Status(parsed, message->string_value);
}

/// A framed-only value read from a nested JSON object.
template <typename T>
Codec<T> ObjectCodec(StatusOr<T> (*read)(const JsonValue& object)) {
  return {nullptr, nullptr,
          [read](const std::string& key, const JsonValue& value)
              -> StatusOr<T> {
            if (value.kind != JsonValue::Kind::kObject) {
              return WrongType(key, "an object");
            }
            return read(value);
          }};
}

/// A job that ran carries its result fields: done, or cancelled after
/// it started.
bool HasResult(const JobSummary& job) {
  return job.state == "done" || (job.state == "cancelled" && job.started);
}

/// A plan carries one degree and one coreness per seed: the coordinator
/// cuts [0, total_seeds) by the arrays' per-seed costs.
Status CheckPlan(const PlanResponse& plan) {
  if (plan.degrees.size() != plan.total_seeds ||
      plan.coreness.size() != plan.total_seeds) {
    return Status::InvalidArgument(
        "plan frame carries " + std::to_string(plan.degrees.size()) +
        " degrees and " + std::to_string(plan.coreness.size()) +
        " coreness values for " + std::to_string(plan.total_seeds) +
        " seeds");
  }
  return Status::Ok();
}

const ResponseTable& Responses() {
  static const ResponseTable table = [] {
    using S = JobSummary;
    using U64 = std::optional<uint64_t>;
    const auto count = UintCodec<uint64_t>();
    auto result = [](Field<S> row) {
      row.when = HasResult;
      return row;
    };
    // A yielded shard's covered prefix; absent unless it yielded.
    auto covered = [&](const char* json, uint64_t S::*bound) {
      return result(BindVia<S, S>(
          nullptr, kOpt, json, Optional(count),
          [bound](const S& job) {
            return job.yielded ? U64(job.*bound) : U64();
          },
          [bound](S& job, U64 value) { job.*bound = *value; }));
    };
    std::vector<Field<S>> job = {
        FrameKey("job", &S::job, count),
        FrameKey("query", &S::query,
                 ObjectCodec<QueryRequest>(
                     [](const JsonValue& object) -> StatusOr<QueryRequest> {
                       QueryRequest query;
                       KPLEX_RETURN_IF_ERROR(ReadFields(
                           object, EchoFields(), "query object", query));
                       return query;
                     })),
        FrameKey("state", &S::state, StringCodec()),
        FrameKey("started", &S::started, OnOffCodec()),
        result(FrameKey("plexes", &S::plexes, count)),
        result(FrameKey("max_size", &S::max_size, count)),
        result(FrameKey("fingerprint", &S::fingerprint, HexCodec())),
        result(FrameKey("seconds", &S::seconds, NumberCodec())),
        result(FrameKey("compute_seconds", &S::compute_seconds,
                        NumberCodec())),
        result(FrameKey("cached", &S::cached, OnOffCodec())),
        result(FrameKey("precomputed", &S::precomputed, OnOffCodec())),
        result(FrameKey("timed_out", &S::timed_out, OnOffCodec())),
        result(FrameKey("stopped_early", &S::stopped_early, OnOffCodec())),
        result(FrameKey("cancelled", &S::cancelled, OnOffCodec())),
        result(FrameKey("bodies", &S::bodies, Optional(count), false)),
        result(FrameKey("cursor", &S::cursor, Optional(CursorCodec()), false)),
        FrameKey("error", &S::error,
                 ObjectCodec<std::optional<Status>>(
                     [](const JsonValue& object)
                         -> StatusOr<std::optional<Status>> {
                       return std::optional<Status>(ErrorObjectStatus(object));
                     })),
    };
    job.back().when = [](const S& failed) { return failed.state == "failed"; };
    // A shard's mergeable pieces follow the job fields.
    std::vector<Field<S>> shard = job;
    shard.insert(
        shard.end(),
        {result(FrameKey("fingerprint_xor", &S::fingerprint_xor, HexCodec())),
         result(FrameKey("total_seeds", &S::total_seeds, count)),
         result(FrameKey("yielded", &S::yielded, OnOffCodec(), false)),
         covered("covered_begin", &S::covered_begin),
         covered("covered_end", &S::covered_end),
         FrameKey("content_hash", &S::content_hash, HexCodec())});
    using H = HelloResponse;
    using P = PlanResponse;
    return ResponseTable{
        .hello = {"hello",
                  {FrameKey("proto", &H::version, UintCodec<uint32_t>()),
                   // A framed-rendered hello means the session is in (or
                   // just switched to) framed mode.
                   BindVia<H, H>(
                       nullptr, kOpt, "mode",
                       TextCodec<WireMode>(ParseWireMode, WireModeName),
                       [](const H& hello) {
                         return hello.mode.value_or(WireMode::kFramed);
                       },
                       [](H& hello, WireMode mode) { hello.mode = mode; },
                       true)}},
        .mine = {"mine", job},
        .shard_result = {"shard_result", shard},
        .plan = {"plan",
                 {FrameKey("graph", &P::graph, StringCodec()),
                  FrameKey("total_seeds", &P::total_seeds, count),
                  FrameKey("content_hash", &P::content_hash, HexCodec()),
                  FrameKey("degeneracy", &P::degeneracy,
                           UintCodec<uint32_t>()),
                  FrameKey("precomputed", &P::precomputed, OnOffCodec()),
                  FrameKey("seconds", &P::seconds, NumberCodec()),
                  FrameKey("degrees", &P::degrees, Uint32ListCodec()),
                  FrameKey("coreness", &P::coreness, Uint32ListCodec())},
                 CheckPlan},
        .shard_submitted = {"shard_submitted",
                            {FrameKey("job", &ShardSubmitResponse::job, count),
                             FrameKey("content_hash",
                                      &ShardSubmitResponse::content_hash,
                                      HexCodec())}},
        .shard_stopping = {"shard_stopping",
                           {FrameKey("job", &ShardStopResponse::job, count)}},
        .worker_ack = {"worker_ack",
                       {FrameKey("worker", &WorkerAckResponse::worker, count),
                        FrameKey("state", &WorkerAckResponse::state,
                                 StringCodec())}},
        .result_chunk = {"result_chunk",
                         {FrameKey("job", &ResultChunkResponse::job, count),
                          FrameKey("seq", &ResultChunkResponse::seq, count),
                          FrameKey("last", &ResultChunkResponse::last,
                                   OnOffCodec()),
                          FrameKey("plexes", &ResultChunkResponse::plexes,
                                   ListCodec(Uint32ListCodec(),
                                             "an array of vertex-id "
                                             "arrays"))}},
    };
  }();
  return table;
}

/// The framed summary of a job; `content_hash` is a shard's.
JobSummary SummaryOf(const JobInfo& info, uint64_t content_hash = 0) {
  const QueryResult& result = info.result;
  JobSummary job;
  job.job = info.id;
  job.query = info.request;
  job.state = JobStateName(info.state);
  job.started = info.started;
  job.plexes = result.num_plexes;
  job.max_size = result.max_plex_size;
  job.fingerprint = result.fingerprint;
  job.seconds = result.seconds;
  job.compute_seconds = result.compute_seconds;
  job.cached = result.from_cache;
  job.precomputed = result.reduction_precomputed;
  job.timed_out = result.timed_out;
  job.stopped_early = result.stopped_early;
  job.cancelled = result.cancelled;
  if (result.plexes != nullptr) job.bodies = result.plexes->size();
  if (result.has_cursor) {
    job.cursor = ResumeCursor{result.cursor_seed, result.cursor_ordinal};
  }
  if (info.state == JobState::kFailed) job.error = info.status;
  job.fingerprint_xor = result.fingerprint_xor;
  job.total_seeds = result.total_seeds;
  job.yielded = result.yielded;
  job.covered_begin = result.covered_begin;
  job.covered_end = result.covered_end;
  job.content_hash = content_hash;
  return job;
}

template <typename Record>
void WriteFrame(JsonWriter& json, const Frame<Record>& frame,
                const Record& record) {
  json.Add("type", frame.type);
  WriteFields(json, frame.fields, record);
}

/// Parses a framed response line into its JSON object, surfacing
/// {"ok":false,...} frames as the embedded structured Status. Requires
/// a numeric id and a type, equal to `type` when one is given.
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
  if (!ok->bool_value) return ErrorObjectStatus(*parsed);
  const JsonValue* id = parsed->Find("id");
  if (id == nullptr) {
    return Status::InvalidArgument("response frame is missing 'id'");
  }
  auto id_value = GetUint(*id, "id");
  if (!id_value.ok()) return id_value.status();
  if (request_id != nullptr) *request_id = *id_value;
  const JsonValue* got = parsed->Find("type");
  if (got == nullptr || got->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("response frame is missing 'type'");
  }
  if (type != nullptr && got->string_value != type) {
    return Status::InvalidArgument(std::string("expected a '") + type +
                                   "' frame, got '" + got->string_value +
                                   "'");
  }
  return parsed;
}

/// The one response decoder: ok/error, id and type through
/// ParseResponseFrame, then the frame's rows and check. A failed job
/// travels inside an ok frame; it comes back as its error, like any
/// other failure.
template <typename Record>
StatusOr<Record> DecodeFrame(const std::string& line,
                             const Frame<Record>& frame,
                             uint64_t* request_id) {
  auto object = ParseResponseFrame(line, frame.type, request_id);
  if (!object.ok()) return object.status();
  Record record;
  KPLEX_RETURN_IF_ERROR(ReadFields(
      *object, frame.fields, std::string(frame.type) + " frame", record));
  if constexpr (requires { *record.error; }) {
    if (record.error) return *record.error;
  }
  if (frame.check != nullptr) KPLEX_RETURN_IF_ERROR(frame.check(record));
  return record;
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
  for (const Field<RequestPayload>& field : verb.fields) {
    required += field.form == kPos;
    positionals += field.form == kPos || field.form == kOptPos;
  }
  if (tokens.size() - 1 < required) return usage();
  // Pair each token after the positionals with the field spelling it.
  // A verb with positionals refuses a wrong shape before reading values.
  const std::size_t first = std::min(tokens.size(), 1 + positionals);
  std::vector<const Field<RequestPayload>*> spelled;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string key = SplitKeyValue(tokens[i]).first;
    const Field<RequestPayload>* match = nullptr;
    for (const Field<RequestPayload>& field : verb.fields) {
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
    const Field<RequestPayload>& field = verb.fields[i - 1];
    KPLEX_RETURN_IF_ERROR(field.ops->FromText(payload, field.text, tokens[i]));
  }
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto [key, value] = SplitKeyValue(tokens[i]);
    const Field<RequestPayload>* field = spelled[i - first];
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
  for (const Field<RequestPayload>& field : verb.fields) {
    if (field.text == nullptr || Omitted(field, payload)) continue;
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
        [&](const Field<RequestPayload>& f) {
          return f.json != nullptr && key == f.json;
        });
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
  json.Add("cmd", verb.name);
  WriteFields(json, verb.fields, request.payload);
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
      WriteFrame(json, Responses().hello, hello);
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
      WriteFrame(json, Responses().mine, SummaryOf(mine.job));
    }
    void operator()(const SubmitResponse& submit) const {
      json.Add("type", "submitted");
      json.Add("job", submit.job);
      WriteQueryObject(json, "query", submit.query);
    }
    void operator()(const ShardResultResponse& shard) const {
      WriteFrame(json, Responses().shard_result,
                 SummaryOf(shard.job, shard.content_hash));
    }
    void operator()(const PlanResponse& plan) const {
      WriteFrame(json, Responses().plan, plan);
    }
    void operator()(const ShardSubmitResponse& shard) const {
      WriteFrame(json, Responses().shard_submitted, shard);
    }
    void operator()(const ShardStopResponse& stop) const {
      WriteFrame(json, Responses().shard_stopping, stop);
    }
    void operator()(const WorkerAckResponse& ack) const {
      WriteFrame(json, Responses().worker_ack, ack);
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
      WriteFrame(json, Responses().result_chunk, chunk);
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
        WriteFields(json, Responses().mine.fields, SummaryOf(info));
        json.EndObject();
      }
      json.EndArray();
    }
    void operator()(const WaitResponse& wait) const {
      json.Add("type", "wait");
      WriteFields(json, Responses().mine.fields, SummaryOf(wait.job));
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
      WriteErrorFields(json, error.status);
    }
  };
  std::visit(Visitor{json}, response.payload);
  json.EndObject();
  return json.str();
}

// ----------------------------------------------- framed client decode

StatusOr<HelloResponse> ParseFramedHello(const std::string& line,
                                         uint64_t* request_id) {
  return DecodeFrame(line, Responses().hello, request_id);
}

StatusOr<JobSummary> ParseFramedShardResult(const std::string& line,
                                            uint64_t* request_id) {
  return DecodeFrame(line, Responses().shard_result, request_id);
}

StatusOr<PlanResponse> ParseFramedPlan(const std::string& line,
                                       uint64_t* request_id) {
  return DecodeFrame(line, Responses().plan, request_id);
}

StatusOr<ShardSubmitResponse> ParseFramedShardSubmit(const std::string& line,
                                                     uint64_t* request_id) {
  return DecodeFrame(line, Responses().shard_submitted, request_id);
}

StatusOr<ShardStopResponse> ParseFramedShardStop(const std::string& line,
                                                 uint64_t* request_id) {
  return DecodeFrame(line, Responses().shard_stopping, request_id);
}

StatusOr<WorkerAckResponse> ParseFramedWorkerAck(const std::string& line,
                                                 uint64_t* request_id) {
  return DecodeFrame(line, Responses().worker_ack, request_id);
}

StatusOr<std::string> PeekFramedResponseType(const std::string& line) {
  auto frame = ParseResponseFrame(line);
  if (!frame.ok()) return frame.status();
  return frame->Find("type")->string_value;
}

StatusOr<ResultChunkResponse> ParseFramedResultChunk(const std::string& line,
                                                     uint64_t* request_id) {
  return DecodeFrame(line, Responses().result_chunk, request_id);
}

StatusOr<JobSummary> ParseFramedMineResult(const std::string& line,
                                           uint64_t* request_id) {
  return DecodeFrame(line, Responses().mine, request_id);
}

StatusOr<ResumeCursor> ParseCursorText(const std::string& value) {
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
  return ResumeCursor{static_cast<uint32_t>(*parsed_seed), *parsed_ordinal};
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
