#include "src/util/json.h"

#include <cstdlib>
#include <cstring>

namespace lupine {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  // Characters that need no escape are copied in runs, not one at a time.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) {
      found = &v;
    }
  }
  return found;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  Result<JsonValue> Document() {
    SkipWs();
    JsonValue value;
    if (Status s = Value(value); !s.ok()) {
      return s;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

  void set_error_sink(JsonParseError* error) { error_ = error; }

 private:
  Status Error(const std::string& what) const {
    if (error_ != nullptr) {
      error_->what = what;
      error_->offset = pos_;
    }
    return Status(Err::kInval, "json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    size_t len = std::strlen(word);
    if (text_.substr(pos_, len) == word) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status Value(JsonValue& out) {
    if (depth_ > options_.max_depth) {
      return Error("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    out.offset = pos_;
    switch (text_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"': {
        out.kind = JsonValue::Kind::kString;
        return String(out.str);
      }
      case 't':
        if (ConsumeWord("true")) {
          out.kind = JsonValue::Kind::kBool;
          out.boolean = true;
          return Status::Ok();
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          out.kind = JsonValue::Kind::kBool;
          out.boolean = false;
          return Status::Ok();
        }
        return Error("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          out.kind = JsonValue::Kind::kNull;
          return Status::Ok();
        }
        return Error("bad literal");
      default:
        return Number(out);
    }
  }

  Status Object(JsonValue& out) {
    ++depth_;
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) {
      --depth_;
      return Status::Ok();
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      const size_t key_offset = pos_;
      std::string key;
      if (Status s = String(key); !s.ok()) {
        return s;
      }
      if (options_.reject_duplicate_keys) {
        for (const auto& [existing, unused] : out.object) {
          if (existing == key) {
            pos_ = key_offset;
            return Error("duplicate key \"" + key + "\"");
          }
        }
      }
      SkipWs();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      SkipWs();
      JsonValue value;
      if (Status s = Value(value); !s.ok()) {
        return s;
      }
      value.key_offset = key_offset;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        --depth_;
        return Status::Ok();
      }
      return Error("expected ',' or '}'");
    }
  }

  Status Array(JsonValue& out) {
    ++depth_;
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) {
      --depth_;
      return Status::Ok();
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (Status s = Value(value); !s.ok()) {
        return s;
      }
      out.array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        --depth_;
        return Status::Ok();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status String(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          uint32_t cp = 0;
          if (Status s = Hex4(cp); !s.ok()) {
            return s;
          }
          // Surrogate pair: a high surrogate must be followed by \uDC00-DFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            uint32_t low = 0;
            if (Status s = Hex4(low); !s.ok()) {
              return s;
            }
            if (low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("bad low surrogate");
            }
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status Hex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    return Status::Ok();
  }

  static void AppendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status Number(JsonValue& out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("unexpected character");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = start;
      return Error("bad number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    return Status::Ok();
  }

  std::string_view text_;
  JsonParseOptions options_;
  JsonParseError* error_ = nullptr;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text, JsonParseOptions{}).Document();
}

Result<JsonValue> ParseJson(std::string_view text, const JsonParseOptions& options,
                            JsonParseError* error) {
  Parser parser(text, options);
  parser.set_error_sink(error);
  return parser.Document();
}

LineCol OffsetToLineCol(std::string_view text, size_t offset) {
  LineCol at;
  if (offset > text.size()) {
    offset = text.size();
  }
  for (size_t i = 0; i < offset; ++i) {
    if (text[i] == '\n') {
      ++at.line;
      at.col = 1;
    } else {
      ++at.col;
    }
  }
  return at;
}

}  // namespace lupine
