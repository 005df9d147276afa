// Minimal JSON: a shared escape helper and a small document parser.
//
// Every JSON emitter in the tree (telemetry export, the event journal, the
// Chrome trace renderer, bench artifact writers) escapes strings through
// JsonEscape here — one definition, not per-file copies. The parser is the
// read side: tools/benchdiff loads BENCH_*.json artifacts with it and the
// tests use it to validate that exported documents actually parse.
//
// Scope: the full JSON grammar minus extremes — numbers parse via strtod
// (no bignum), \u escapes decode to UTF-8 (surrogate pairs supported),
// objects preserve insertion order and duplicate keys keep the last value
// on lookup. That covers every document this repo produces.
//
// Spec-sized inputs (src/loadspec scenario files) get two extra guards via
// JsonParseOptions — a configurable nesting depth limit and duplicate-key
// rejection — and every parsed value carries its byte offset in the input
// so consumers can report line-precise semantic errors (OffsetToLineCol).
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace lupine {

// Escapes `s` for embedding inside a JSON string literal (quotes not
// included): backslash, double quote, and every control character below
// 0x20 (\n, \t, \r named; the rest as \u00XX).
std::string JsonEscape(std::string_view s);

// JsonEscape appended to `out` — for renderers that build one document in a
// single buffer without a temporary per string.
void AppendJsonEscaped(std::string* out, std::string_view s);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion order preserved (exports are order-deterministic, so tests
  // can assert on it). Find() returns the last entry for a duplicate key.
  std::vector<std::pair<std::string, JsonValue>> object;

  // Byte offset of this value's first character in the parsed input, and —
  // for object members — of the member's key. Feed them to OffsetToLineCol
  // for "7:13: unknown key" style diagnostics.
  size_t offset = 0;
  size_t key_offset = 0;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

struct JsonParseOptions {
  // Maximum array/object nesting. The default matches the historical limit;
  // spec parsers pass something far smaller.
  int max_depth = 256;
  // Reject objects that bind the same key twice instead of keeping the last
  // value. Scenario specs enable this: a silently-shadowed "workers" key is
  // a user error, not a convenience.
  bool reject_duplicate_keys = false;
};

// Structured parse failure for callers that render their own diagnostics
// (the Status message embeds the same information as text).
struct JsonParseError {
  std::string what;
  size_t offset = 0;
};

// Parses a complete JSON document (leading/trailing whitespace allowed;
// trailing garbage is an error). Errors carry a byte offset; pass `error`
// to also receive it in structured form.
Result<JsonValue> ParseJson(std::string_view text);
Result<JsonValue> ParseJson(std::string_view text, const JsonParseOptions& options,
                            JsonParseError* error = nullptr);

// 1-based line/column for a byte offset into `text` (tabs count one column).
struct LineCol {
  int line = 1;
  int col = 1;
};
LineCol OffsetToLineCol(std::string_view text, size_t offset);

}  // namespace lupine

#endif  // SRC_UTIL_JSON_H_
