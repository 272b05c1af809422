#include "support/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace griffin {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

double
JsonValue::asDouble() const
{
    if (kind != Kind::Number)
        fatal("JSON value is not a number");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("unparsable JSON number token '", text, "'");
    return v;
}

std::int64_t
JsonValue::asInt() const
{
    if (kind != Kind::Number)
        fatal("JSON value is not a number");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal("JSON number token '", text,
              "' is not a 64-bit integer");
    return static_cast<std::int64_t>(v);
}

std::uint64_t
JsonValue::asUint() const
{
    if (kind != Kind::Number)
        fatal("JSON value is not a number");
    if (!text.empty() && text[0] == '-')
        fatal("JSON number token '", text, "' is negative");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal("JSON number token '", text,
              "' is not an unsigned 64-bit integer");
    return static_cast<std::uint64_t>(v);
}

const std::string &
JsonValue::asString() const
{
    if (kind != Kind::String)
        fatal("JSON value is not a string");
    return text;
}

bool
JsonValue::asBool() const
{
    if (kind != Kind::Bool)
        fatal("JSON value is not a boolean");
    return boolean;
}

namespace {

class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing content after JSON value");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseLiteral(const char *word, JsonValue &out, JsonValue::Kind kind,
                 bool boolean)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size())
                return fail("truncated escape");
            const char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_ + i];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return fail("malformed \\u escape");
                  }
                  pos_ += 4;
                  // UTF-8-encode the code point (our writer only emits
                  // \u00xx control escapes, but accept the full BMP;
                  // surrogate pairs are out of scope for our files).
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xc0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (code >> 12));
                      out += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (code & 0x3f));
                  }
                  break;
              }
              default:
                  return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return fail("malformed number");
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.')) {
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed number fraction");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed number exponent");
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        out.kind = JsonValue::Kind::Number;
        out.text = text_.substr(start, pos_ - start);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth_ > maxDepth)
            return fail("JSON nesting too deep");
        bool ok = parseValueInner(out);
        --depth_;
        return ok;
    }

    bool
    parseValueInner(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
          case '{': {
              ++pos_;
              out.kind = JsonValue::Kind::Object;
              skipSpace();
              if (consume('}'))
                  return true;
              while (true) {
                  skipSpace();
                  std::string key;
                  if (!parseString(key))
                      return false;
                  skipSpace();
                  if (!consume(':'))
                      return fail("expected ':' in object");
                  JsonValue value;
                  if (!parseValue(value))
                      return false;
                  out.members.emplace_back(std::move(key),
                                           std::move(value));
                  skipSpace();
                  if (consume(','))
                      continue;
                  if (consume('}'))
                      return true;
                  return fail("expected ',' or '}' in object");
              }
          }
          case '[': {
              ++pos_;
              out.kind = JsonValue::Kind::Array;
              skipSpace();
              if (consume(']'))
                  return true;
              while (true) {
                  JsonValue value;
                  if (!parseValue(value))
                      return false;
                  out.items.push_back(std::move(value));
                  skipSpace();
                  if (consume(','))
                      continue;
                  if (consume(']'))
                      return true;
                  return fail("expected ',' or ']' in array");
              }
          }
          case '"':
              out.kind = JsonValue::Kind::String;
              return parseString(out.text);
          case 't':
              return parseLiteral("true", out, JsonValue::Kind::Bool,
                                  true);
          case 'f':
              return parseLiteral("false", out, JsonValue::Kind::Bool,
                                  false);
          case 'n':
              return parseLiteral("null", out, JsonValue::Kind::Null,
                                  false);
          default:
              return parseNumber(out);
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    static constexpr int maxDepth = 64;

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    error.clear();
    Parser parser(text, error);
    return parser.parseDocument(out);
}

} // namespace griffin
