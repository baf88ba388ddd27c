#include "support/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace capu::json
{

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    bool
    parse(Value &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos_ == s_.size(); // no trailing garbage
    }

    /** After a failed parse: the byte offset (0-based) it stopped at. */
    std::size_t offset() const { return pos_; }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        return false;
                    pos_ += 4; // we only need to skip it
                    out += '?';
                    break;
                  default: out += e;
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    value(Value &out)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{') {
            out.kind = Value::Obj;
            ++pos_;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
                Value v;
                if (!value(v))
                    return false;
                if (out.obj.emplace(key, std::move(v)).second)
                    out.keys.push_back(std::move(key));
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '[') {
            out.kind = Value::Arr;
            ++pos_;
            skipWs();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Value v;
                if (!value(v))
                    return false;
                out.arr.push_back(std::move(v));
                skipWs();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return false;
            }
        }
        if (c == '"') {
            out.kind = Value::Str;
            return string(out.str);
        }
        if (c == 't') {
            out.kind = Value::Bool;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = Value::Bool;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = Value::Null;
            return literal("null");
        }
        // number
        std::size_t start = pos_;
        if (c == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        // The whole token must be one number. An overflow reads as
        // infinity and fails; an underflow reads as zero. A failure is
        // reported at the token's first byte.
        std::string token = s_.substr(start, pos_ - start);
        char *end = nullptr;
        out.kind = Value::Num;
        out.num = std::strtod(token.c_str(), &end);
        if (end == token.c_str() + token.size() && std::isfinite(out.num))
            return true;
        pos_ = start;
        return false;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

std::int64_t
Value::asI64() const
{
    // 2^63 is exact as a double; every double below it converts.
    constexpr double kLimit = 9223372036854775808.0;
    if (kind != Num || std::isnan(num))
        return 0;
    if (num >= kLimit)
        return std::numeric_limits<std::int64_t>::max();
    if (num < -kLimit)
        return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(num);
}

std::uint64_t
Value::asU64() const
{
    // 2^64 is exact as a double; every double below it converts.
    constexpr double kLimit = 18446744073709551616.0;
    if (kind != Num || !(num >= 0))
        return 0;
    if (num >= kLimit)
        return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(num);
}

const Value &
Value::operator[](const std::string &k) const
{
    static const Value null;
    auto it = obj.find(k);
    return it == obj.end() ? null : it->second;
}

bool
parse(const std::string &text, Value &out)
{
    return Parser(text).parse(out);
}

bool
parseFile(const std::string &path, Value &out, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    Parser parser(text);
    if (!parser.parse(out)) {
        if (err) {
            *err = "malformed JSON at byte " +
                   std::to_string(parser.offset()) + " in '" + path + "'";
        }
        return false;
    }
    return true;
}

} // namespace capu::json
