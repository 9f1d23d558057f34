#include "util/json.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

#include "util/logging.hh"

namespace nvmexp {

JsonValue
JsonValue::makeBool(bool value)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = value;
    return v;
}

JsonValue
JsonValue::makeNumber(double value)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = value;
    return v;
}

JsonValue
JsonValue::makeString(std::string value)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(value);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

JsonValue &
JsonValue::append(JsonValue element)
{
    if (!isArray())
        fatal("JSON: append on non-array");
    array_.push_back(std::move(element));
    return *this;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue member)
{
    if (!isObject())
        fatal("JSON: set on non-object");
    auto it = object_.find(key);
    if (it == object_.end()) {
        memberOrder_.push_back(key);
        object_.emplace(key, std::move(member));
    } else {
        it->second = std::move(member);
    }
    return *this;
}

bool
JsonValue::asBool() const
{
    if (!isBool())
        fatal("JSON: expected a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (!isNumber())
        fatal("JSON: expected a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        fatal("JSON: expected a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (!isArray())
        fatal("JSON: expected an array");
    return array_;
}

bool
JsonValue::has(const std::string &key) const
{
    return isObject() && object_.count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (!isObject())
        fatal("JSON: expected an object holding '", key, "'");
    auto it = object_.find(key);
    if (it == object_.end())
        fatal("JSON: missing required member '", key, "'");
    return it->second;
}

double
JsonValue::numberOr(const std::string &key, double dflt) const
{
    return has(key) ? at(key).asNumber() : dflt;
}

bool
JsonValue::boolOr(const std::string &key, bool dflt) const
{
    return has(key) ? at(key).asBool() : dflt;
}

std::string
JsonValue::stringOr(const std::string &key, const std::string &dflt) const
{
    return has(key) ? at(key).asString() : dflt;
}

const std::vector<std::string> &
JsonValue::memberNames() const
{
    if (!isObject())
        fatal("JSON: memberNames on non-object");
    return memberOrder_;
}

std::string
JsonValue::formatNumber(double value)
{
    std::string out;
    JsonWriter::appendNumber(out, value);
    return out;
}

bool
JsonValue::parseNumber(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    bool negative = text[0] == '-';
    std::size_t first = (negative || text[0] == '+') ? 1 : 0;
    if (text.compare(first, std::string::npos, "Infinity") == 0) {
        out = negative ? -std::numeric_limits<double>::infinity()
                       : std::numeric_limits<double>::infinity();
        return true;
    }
    if (!negative && text.compare(first, std::string::npos, "NaN") == 0) {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    // Mirror the scanner's character set before handing the text to
    // from_chars: at least one digit, nothing but digit/./e/E/sign
    // characters. This rejects the spellings from_chars itself would
    // accept beyond the JSON grammar ("inf", "nan", "0x1p4").
    bool sawDigit = false;
    for (std::size_t i = first; i < text.size(); ++i) {
        char c = text[i];
        if (std::isdigit((unsigned char)c)) {
            sawDigit = true;
        } else if (c != '.' && c != 'e' && c != 'E' && c != '+' &&
                   c != '-') {
            return false;
        }
    }
    if (!sawDigit)
        return false;
    // from_chars rejects a leading '+' (allowed here, as in the
    // scanner) but consumes '-' itself.
    std::size_t begin = text[0] == '+' ? 1 : 0;
    double value = 0.0;
    auto r = std::from_chars(text.data() + begin,
                             text.data() + text.size(), value);
    if (r.ec != std::errc() || r.ptr != text.data() + text.size())
        return false;
    out = value;
    return true;
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    JsonWriter(out, indent).value(*this);
    return out;
}

void
JsonValue::writeFile(const std::string &path) const
{
    std::string text = dump();
    text += '\n';
    writeFileAtomically(path, text);
}

void
JsonWriter::appendNumber(std::string &out, double value)
{
    if (std::isnan(value)) {
        out += "NaN";
        return;
    }
    if (std::isinf(value)) {
        out += value > 0.0 ? "Infinity" : "-Infinity";
        return;
    }
    // std::to_chars emits the shortest decimal form that parses back
    // to the exact same bits, independent of the C locale (snprintf
    // would print a ',' decimal point under e.g. de_DE and corrupt
    // every store artifact).
    char buffer[40];
    auto r = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out.append(buffer, (std::size_t)(r.ptr - buffer));
}

void
JsonWriter::appendString(std::string &out, std::string_view value)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    // Copy runs of bytes that need no escape in one append each.
    std::size_t run = 0;
    for (std::size_t i = 0; i < value.size(); ++i) {
        auto c = (unsigned char)value[i];
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(value.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            const char escape[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                   hex[c & 0xF]};
            out.append(escape, sizeof(escape));
            break;
          }
        }
    }
    out.append(value.data() + run, value.size() - run);
    out += '"';
}

void
JsonWriter::newline()
{
    if (indent_ >= 0) {
        out_ += '\n';
        out_.append((std::size_t)indent_ * (std::size_t)depth_, ' ');
    }
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    if (!first_)
        out_ += ',';
    first_ = false;
    newline();
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    ++depth_;
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    --depth_;
    if (!first_)
        newline();
    out_ += bracket;
    first_ = false;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    appendString(out_, name);
    out_ += ':';
    if (indent_ >= 0)
        out_ += ' ';
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::number(double value)
{
    separate();
    appendNumber(out_, value);
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view value)
{
    separate();
    appendString(out_, value);
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool value)
{
    separate();
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::value(const JsonValue &doc)
{
    switch (doc.kind()) {
      case JsonValue::Kind::Null:
        return null();
      case JsonValue::Kind::Bool:
        return boolean(doc.asBool());
      case JsonValue::Kind::Number:
        return number(doc.asNumber());
      case JsonValue::Kind::String:
        return string(doc.asString());
      case JsonValue::Kind::Array:
        beginArray();
        for (const auto &element : doc.asArray())
            value(element);
        return endArray();
      case JsonValue::Kind::Object:
        beginObject();
        for (const auto &name : doc.memberNames())
            key(name).value(doc.at(name));
        return endObject();
    }
    panic("unhandled JsonValue::Kind");
}

void
writeFileAtomically(const std::string &path, std::string_view bytes)
{
    static std::atomic<std::uint64_t> counter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1));
    bool written = false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        written = out.write(bytes.data(), (std::streamsize)bytes.size()) &&
            out.flush();
    }
    std::error_code ec;
    if (written)
        std::filesystem::rename(tmp, path, ec);
    if (!written || ec) {
        std::error_code ignored;
        std::filesystem::remove(tmp, ignored);
        if (!written)
            fatal("cannot write '", tmp, "' (for '", path, "')");
        fatal("cannot move '", tmp, "' to '", path, "': ", ec.message());
    }
}

bool
isWholeNumber(double value, double lo, double hi)
{
    return value >= lo && value <= hi && value == std::floor(value);
}

std::int64_t
wholeNumberKey(const JsonValue &doc, const std::string &key,
               std::int64_t lo, std::int64_t hi, const std::string &context)
{
    const JsonValue *member = doc.has(key) ? &doc.at(key) : nullptr;
    if (!member || !member->isNumber() ||
        !isWholeNumber(member->asNumber(), (double)lo, (double)hi)) {
        fatal(context, ": \"", key, "\" must be an integer in [", lo,
              ", ", hi, "], got ", member ? member->dump(-1) : "nothing");
    }
    return (std::int64_t)member->asNumber();
}

namespace {

/** Thrown instead of fatal() when parsing leniently (tryParse). */
struct JsonParseAbort
{
};

} // namespace

/** Recursive-descent parser with line/column tracking. */
class JsonParser
{
  public:
    /** `source` names the file being parsed in error messages. */
    explicit JsonParser(const std::string &text, bool lenient = false,
                        std::string source = "")
        : text_(text), lenient_(lenient), source_(std::move(source))
    {
    }

    JsonValue
    parseDocument()
    {
        JsonValue value = parseValue();
        skipWhitespace();
        if (pos_ < text_.size())
            fail("trailing content after document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        if (lenient_)
            throw JsonParseAbort{};
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("JSON parse error",
              source_.empty() ? std::string() : " in '" + source_ + "'",
              " at line ", line, " column ", col, ": ", what);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (pos_ < text_.size() && text_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    char
    peek()
    {
        skipWhitespace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          case 'I':
          case 'N': return parseNonFinite(false);
          default:  return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        if (consumeIf('}'))
            return v;
        while (true) {
            if (peek() != '"')
                fail("expected a member name");
            JsonValue key = parseString();
            expect(':');
            JsonValue member = parseValue();
            if (v.object_.count(key.string_))
                fail("duplicate member '" + key.string_ + "'");
            v.memberOrder_.push_back(key.string_);
            v.object_.emplace(key.string_, std::move(member));
            if (consumeIf('}'))
                return v;
            expect(',');
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        if (consumeIf(']'))
            return v;
        while (true) {
            v.array_.push_back(parseValue());
            if (consumeIf(']'))
                return v;
            expect(',');
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                break;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("dangling escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':  v.string_ += '"'; break;
                  case '\\': v.string_ += '\\'; break;
                  case '/':  v.string_ += '/'; break;
                  case 'n':  v.string_ += '\n'; break;
                  case 't':  v.string_ += '\t'; break;
                  case 'r':  v.string_ += '\r'; break;
                  case 'b':  v.string_ += '\b'; break;
                  case 'f':  v.string_ += '\f'; break;
                  case 'u':  appendCodePoint(v.string_); break;
                  default:   fail("unsupported escape sequence");
                }
            } else {
                v.string_ += c;
            }
        }
        return v;
    }

    /** The four hex digits of a \u escape, `pos_` just past the 'u'. */
    unsigned
    parseHex4()
    {
        if (text_.size() - pos_ < 4)
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_];
            unsigned digit = 0;
            if (c >= '0' && c <= '9')
                digit = (unsigned)(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = (unsigned)(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = (unsigned)(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
            code = code * 16 + digit;
            ++pos_;
        }
        return code;
    }

    /** Decode one \u escape (a surrogate pair takes two) and append
     *  the code point as UTF-8. A lone surrogate fails at its offset. */
    void
    appendCodePoint(std::string &out)
    {
        std::size_t escape = pos_ - 2;
        unsigned code = parseHex4();
        if (code >= 0xDC00 && code <= 0xDFFF) {
            pos_ = escape;
            fail("lone low surrogate in \\u escape");
        }
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (text_.compare(pos_, 2, "\\u") != 0) {
                pos_ = escape;
                fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
                pos_ = escape;
                fail("lone high surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        if (code < 0x80) {
            out += (char)code;
        } else if (code < 0x800) {
            out += (char)(0xC0 | (code >> 6));
            out += (char)(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += (char)(0xE0 | (code >> 12));
            out += (char)(0x80 | ((code >> 6) & 0x3F));
            out += (char)(0x80 | (code & 0x3F));
        } else {
            out += (char)(0xF0 | (code >> 18));
            out += (char)(0x80 | ((code >> 12) & 0x3F));
            out += (char)(0x80 | ((code >> 6) & 0x3F));
            out += (char)(0x80 | (code & 0x3F));
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.bool_ = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.bool_ = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonValue();
    }

    /** JSON5-style non-finite literals (written by the serializer). */
    JsonValue
    parseNonFinite(bool negative)
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        if (text_.compare(pos_, 8, "Infinity") == 0) {
            pos_ += 8;
            v.number_ = negative
                ? -std::numeric_limits<double>::infinity()
                : std::numeric_limits<double>::infinity();
        } else if (!negative && text_.compare(pos_, 3, "NaN") == 0) {
            pos_ += 3;
            v.number_ = std::numeric_limits<double>::quiet_NaN();
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+')) {
            ++pos_;
            if (pos_ < text_.size() && text_[pos_] == 'I')
                return parseNonFinite(text_[start] == '-');
        }
        bool sawDigit = false;
        while (pos_ < text_.size() &&
               (std::isdigit((unsigned char)text_[pos_]) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            sawDigit = sawDigit ||
                std::isdigit((unsigned char)text_[pos_]);
            ++pos_;
        }
        if (!sawDigit) {
            pos_ = start;
            fail("expected a value");
        }
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        // Locale-independent counterpart of formatNumber (strtod
        // would expect a ',' decimal point under some locales).
        // from_chars rejects a leading '+', which the scanner allows.
        std::size_t first = start;
        if (text_[first] == '+')
            ++first;
        auto r = std::from_chars(text_.data() + first,
                                 text_.data() + pos_, v.number_);
        if (r.ec != std::errc()) {
            pos_ = start;
            fail("bad number");
        }
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    bool lenient_ = false;
    std::string source_;
};

JsonValue
JsonValue::parse(const std::string &text)
{
    JsonParser parser(text);
    return parser.parseDocument();
}

bool
JsonValue::tryParse(const std::string &text, JsonValue &out)
{
    JsonParser parser(text, /*lenient=*/true);
    try {
        out = parser.parseDocument();
        return true;
    } catch (const JsonParseAbort &) {
        return false;
    }
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    return JsonParser(text, false, path).parseDocument();
}

} // namespace nvmexp
