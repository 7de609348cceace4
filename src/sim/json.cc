#include "json.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pktchase::sim
{

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &err)
    {
        out = value();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing junk after JSON value");
        if (failed_)
            err = err_;
        return !failed_;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return '\0';
        }
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        else
            ++pos_;
    }

    void
    fail(const std::string &why)
    {
        if (!failed_)
            err_ = "JSON parse error at byte " + std::to_string(pos_) +
                   ": " + why;
        failed_ = true;
    }

    /** A string literal. The writers emit only the escapes \" and \\,
     *  so those are the only ones read: any other (\t, \u0041, ...)
     *  fails instead of silently naming something else. */
    std::string
    string()
    {
        expect('"');
        std::string out;
        while (!failed_ && pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                if (text_[pos_] != '"' && text_[pos_] != '\\') {
                    --pos_;
                    fail("unsupported escape in string (only \\\" and "
                         "\\\\ are read)");
                    break;
                }
                c = text_[pos_++];
            }
            if (static_cast<unsigned char>(c) < 0x20)
                fail("control character in string");
            else
                out.push_back(c);
        }
        expect('"');
        return out;
    }

    /** Length of the JSON number at pos_ (0 if none):
     *  -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    std::size_t
    numberLength() const
    {
        std::size_t p = pos_;
        auto digits = [&] {
            const std::size_t from = p;
            while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9')
                ++p;
            return p > from;
        };
        if (p < text_.size() && text_[p] == '-')
            ++p;
        if (p < text_.size() && text_[p] == '0')
            ++p;
        else if (!digits())
            return 0;
        if (p < text_.size() && text_[p] == '.') {
            ++p;
            if (!digits())
                return 0;
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() && (text_[p] == '+' || text_[p] == '-'))
                ++p;
            if (!digits())
                return 0;
        }
        return p - pos_;
    }

    JsonValue
    value()
    {
        const char c = peek();
        JsonValue v;
        if (failed_)
            return v;
        if ((c == '{' || c == '[') && depth_ == kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
            return v;
        }
        const Nest nest(depth_);
        if (c == '{') {
            ++pos_;
            v.kind = JsonValue::Object;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (!failed_) {
                std::string key = string();
                expect(':');
                v.obj.emplace_back(std::move(key), value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            expect('}');
        } else if (c == '[') {
            ++pos_;
            v.kind = JsonValue::Array;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (!failed_) {
                v.arr.push_back(value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            expect(']');
        } else if (c == '"') {
            v.kind = JsonValue::String;
            v.str = string();
        } else {
            v.kind = JsonValue::Number;
            const std::size_t len = numberLength();
            if (len == 0) {
                fail("expected a number");
                return v;
            }
            v.num = std::strtod(text_.substr(pos_, len).c_str(), nullptr);
            pos_ += len;
        }
        return v;
    }

    /** Deepest object/array nesting accepted; the report writers nest
     *  3 levels below the root, and the recursion must not exhaust
     *  the stack on hostile input. */
    static constexpr unsigned kMaxDepth = 64;

    /** Counts one nesting level for the lifetime of a value() call. */
    struct Nest
    {
        explicit Nest(unsigned &d) : depth(d) { ++depth; }
        ~Nest() { --depth; }
        unsigned &depth;
    };

    const std::string &text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;
    bool failed_ = false;
    std::string err_;
};

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Null:
        return "null";
      case JsonValue::Number:
        return "number";
      case JsonValue::String:
        return "string";
      case JsonValue::Array:
        return "array";
      case JsonValue::Object:
        return "object";
    }
    return "?";
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const JsonValue *
JsonValue::require(const std::string &key, Kind want,
                   const std::string &what, std::string &err) const
{
    const JsonValue *v = find(key);
    if (!v) {
        err = what + ": missing \"" + key + "\"";
        return nullptr;
    }
    if (v->kind != want) {
        err = what + ": \"" + key + "\" is not a " + kindName(want);
        return nullptr;
    }
    return v;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    return Parser(text).parse(out, err);
}

bool
parseJsonFile(const std::string &path, JsonValue &out, std::string &err)
{
    std::ifstream in(path);
    if (!in.good()) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    if (!parseJson(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

bool
parseDecimalU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

} // namespace pktchase::sim
