#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace otter::json {

// -- escaping -----------------------------------------------------------------

namespace {

void append_u_escape(std::string& out, uint32_t cp) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "\\u%04x", cp);
  out += buf;
}

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when the
/// bytes there are not valid UTF-8 (truncated, overlong, surrogate, or
/// out-of-range encodings all count as invalid).
size_t utf8_sequence_length(std::string_view s, size_t i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  size_t len = 0;
  uint32_t cp = 0;
  uint32_t min_cp = 0;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1Fu;
    min_cp = 0x80;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0Fu;
    min_cp = 0x800;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07u;
    min_cp = 0x10000;
  } else {
    return 0;  // continuation or invalid lead byte
  }
  if (i + len > s.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    const auto b = static_cast<unsigned char>(s[i + k]);
    if ((b & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3Fu);
  }
  if (cp < min_cp) return 0;                    // overlong encoding
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;   // surrogate half
  if (cp > 0x10FFFF) return 0;                  // beyond Unicode
  return len;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    const auto b = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
      ++i;
    } else if (c == '\\') {
      out += "\\\\";
      ++i;
    } else if (c == '\n') {
      out += "\\n";
      ++i;
    } else if (c == '\r') {
      out += "\\r";
      ++i;
    } else if (c == '\t') {
      out += "\\t";
      ++i;
    } else if (b < 0x20) {
      append_u_escape(out, b);
      ++i;
    } else if (b < 0x80) {
      out += c;
      ++i;
    } else if (size_t len = utf8_sequence_length(s, i); len > 0) {
      out.append(s.substr(i, len));
      i += len;
    } else {
      // Invalid UTF-8 byte: substitute U+FFFD, consume exactly one byte so
      // a later valid sequence still renders.
      out += "\\ufffd";
      ++i;
    }
  }
  return out;
}

// -- writing ------------------------------------------------------------------

namespace {

void dump_value(const JValue& v, std::string& out) {
  switch (v.kind()) {
    case JValue::Kind::Null:
      out += "null";
      return;
    case JValue::Kind::Bool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JValue::Kind::Number: {
      double n = v.as_number();
      if (!std::isfinite(n)) {  // JSON has no Inf/NaN; null is the honest spelling
        out += "null";
        return;
      }
      char buf[32];
      // Range first: casting a double past long long's range is undefined.
      if (std::fabs(n) < 1e15 &&
          n == static_cast<double>(static_cast<long long>(n))) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", n);
      }
      out += buf;
      return;
    }
    case JValue::Kind::String:
      out += '"';
      out += json_escape(v.as_string());
      out += '"';
      return;
    case JValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JValue& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(e, out);
      }
      out += ']';
      return;
    }
    case JValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(k);
        out += "\":";
        dump_value(e, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string JValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

// -- parsing ------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : s_(text), max_depth_(max_depth) {}

  std::optional<JValue> run(ParseError* err) {
    skip_ws();
    JValue v;
    if (!parse_value(v, 0)) {
      fill(err);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after the document");
      fill(err);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill(ParseError* err) const {
    if (err != nullptr) *err = {pos_, reason_};
  }

  bool fail(const char* why) {
    if (reason_.empty()) reason_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JValue& out, int depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        out = JValue();
        return literal("null");
      case 't':
        out = JValue(true);
        return literal("true");
      case 'f':
        out = JValue(false);
        return literal("false");
      case '"': {
        std::string str;
        if (!parse_string(str)) return false;
        out = JValue(std::move(str));
        return true;
      }
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JValue& out) {
    size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out = JValue(v);
    return true;
  }

  bool parse_hex4(uint32_t& out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int k = 0; k < 4; ++k) {
      char c = s_[pos_++];
      uint32_t d = 0;
      if (c >= '0' && c <= '9') d = static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') d = static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') d = static_cast<uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape digit");
      out = (out << 4) | d;
    }
    return true;
  }

  static void append_utf8(std::string& out, uint32_t cp) {
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

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (true) {
      if (at_end()) return fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) return fail("truncated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < s_.size() &&
              s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
            pos_ += 2;
            uint32_t lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired surrogate");
            }
          } else if (cp >= 0xD800 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_array(JValue& out, int depth) {
    ++pos_;  // '['
    JArray arr;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      out = JValue(std::move(arr));
      return true;
    }
    while (true) {
      JValue v;
      skip_ws();
      if (!parse_value(v, depth + 1)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      char c = s_[pos_++];
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']' in array");
    }
    out = JValue(std::move(arr));
    return true;
  }

  bool parse_object(JValue& out, int depth) {
    ++pos_;  // '{'
    JObject obj;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      out = JValue(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || s_[pos_++] != ':') return fail("expected ':'");
      skip_ws();
      JValue v;
      if (!parse_value(v, depth + 1)) return false;
      obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      char c = s_[pos_++];
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}' in object");
    }
    out = JValue(std::move(obj));
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  int max_depth_;
  std::string reason_;
};

}  // namespace

std::optional<JValue> parse(std::string_view text, ParseError* err,
                            int max_depth) {
  return Parser(text, max_depth).run(err);
}

}  // namespace otter::json
