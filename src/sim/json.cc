#include "sim/json.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace sim {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw JsonError("missing key '" + key + "'");
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw JsonError("JSON parse error at byte " +
                        std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 s_[pos_] + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        const char c = peek();
        switch (c) {
          case '{': return object();
          case '[': return array();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.str = string();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            if (consumeLiteral("true"))
                v.boolean = true;
            else if (consumeLiteral("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
          }
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
          default:
            return numberValue();
        }
    }

    JsonValue
    numberValue()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool has_digits = false;
        bool integral = true;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                has_digits = true;
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (!has_digits)
            fail("bad number");
        const std::string tok = s_.substr(start, pos_ - start);
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        errno = 0;
        char *end = nullptr;
        v.number = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("bad number '" + tok + "'");
        if (integral) {
            errno = 0;
            const long long i = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end == tok.c_str() + tok.size()) {
                v.isInteger = true;
                v.integer = i;
            }
        }
        return v;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            const char e = s_[pos_++];
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
                if (pos_ + 4 > s_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two 3-byte sequences; our writers never emit them).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            const char c = peek();
            if (c == ',') {
                ++pos_;
            } else if (c == ']') {
                ++pos_;
                return v;
            } else {
                fail("expected ',' or ']' in array");
            }
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = string();
            expect(':');
            v.obj.emplace_back(std::move(key), value());
            const char c = peek();
            if (c == ',') {
                ++pos_;
            } else if (c == '}') {
                ++pos_;
                return v;
            } else {
                fail("expected ',' or '}' in object");
            }
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

double
numberRelDiff(const JsonValue &a, const JsonValue &b)
{
    if (a.isInteger && b.isInteger) {
        // Exact comparison: above 2^53 distinct int64s collapse to the
        // same double, so the difference must be formed in integer
        // space.  Unsigned subtraction of the two's-complement values
        // yields the true magnitude for any sign mix (it always fits
        // in a uint64).
        if (a.integer == b.integer)
            return 0.0;
        const unsigned long long ua =
            static_cast<unsigned long long>(a.integer);
        const unsigned long long ub =
            static_cast<unsigned long long>(b.integer);
        const unsigned long long mag =
            a.integer > b.integer ? ua - ub : ub - ua;
        const double denom = std::max(std::fabs(a.number),
                                      std::fabs(b.number));
        // denom can only be 0 when both values are 0, i.e. equal.
        return static_cast<double>(mag) / denom;
    }
    if (a.number == b.number)
        return 0.0;
    const double denom = std::max(std::fabs(a.number),
                                  std::fabs(b.number));
    return denom > 0.0 ? std::fabs(a.number - b.number) / denom : 0.0;
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw JsonError("cannot open '" + path + "'");
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    const bool bad = std::ferror(f);
    std::fclose(f);
    if (bad)
        throw JsonError("read error on '" + path + "'");
    return parseJson(text);
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strformat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";
    return strformat("%.17g", v);
}

} // namespace sim
