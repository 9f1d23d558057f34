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

void
JsonReader::failAt(std::size_t offset, std::string_view what,
                   bool syntax) const
{
    if (lenient_)
        throw Abort{syntax};
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < offset && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
    }
    std::string where = " at line " + std::to_string(line) + " column " +
        std::to_string(col) + ": ";
    std::string source(source_);
    if (syntax) {
        fatal("JSON parse error",
              source.empty() ? std::string() : " in '" + source + "'",
              where, what);
    }
    fatal(source.empty() ? "JSON document" : "'" + source + "'", where,
          what);
}

void
JsonReader::fail(std::string_view what) const
{
    failAt(pos_, what);
}

void
JsonReader::reject(std::string_view what) const
{
    failAt(pos_, what, /*syntax=*/false);
}

void
JsonReader::skipWhitespace()
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
JsonReader::skipToNext()
{
    skipWhitespace();
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    return text_[pos_];
}

void
JsonReader::expect(char c)
{
    if (next() != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

JsonValue::Kind
JsonReader::peek()
{
    switch (next()) {
      case '{': return JsonValue::Kind::Object;
      case '[': return JsonValue::Kind::Array;
      case '"': return JsonValue::Kind::String;
      case 't':
      case 'f': return JsonValue::Kind::Bool;
      case 'n': return JsonValue::Kind::Null;
      default:  return JsonValue::Kind::Number;
    }
}

void
JsonReader::beginObject()
{
    expect('{');
    afterOpen_ = true;
}

bool
JsonReader::nextMember(std::string_view &name)
{
    char c = next();
    if (c == '}') {
        ++pos_;
        afterOpen_ = false;
        return false;
    }
    if (!afterOpen_) {
        if (c != ',')
            fail("expected ','");
        ++pos_;
    }
    afterOpen_ = false;
    if (next() != '"')
        fail("expected a member name");
    name = string();
    expect(':');
    return true;
}

void
JsonReader::beginArray()
{
    expect('[');
    afterOpen_ = true;
}

bool
JsonReader::nextElement()
{
    char c = next();
    if (c == ']') {
        ++pos_;
        afterOpen_ = false;
        return false;
    }
    if (!afterOpen_) {
        if (c != ',')
            fail("expected ','");
        ++pos_;
    }
    afterOpen_ = false;
    return true;
}

void
JsonReader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        fail("bad literal");
    pos_ += word.size();
}

bool
JsonReader::boolean()
{
    if (next() == 't') {
        literal("true");
        return true;
    }
    literal("false");
    return false;
}

void
JsonReader::null()
{
    next();
    literal("null");
}

/** JSON5-style non-finite literals (written by the serializer). */
double
JsonReader::nonFinite(bool negative)
{
    if (text_.substr(pos_, 8) == "Infinity") {
        pos_ += 8;
        return negative ? -std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::infinity();
    }
    if (!negative && text_.substr(pos_, 3) == "NaN") {
        pos_ += 3;
        return std::numeric_limits<double>::quiet_NaN();
    }
    fail("bad literal");
}

double
JsonReader::number()
{
    char c = next();
    if (c == 'I' || c == 'N')
        return nonFinite(false);
    std::size_t start = pos_;
    if (c == '-' || c == '+') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == 'I')
            return nonFinite(c == '-');
    }
    // The token is the run of digit, '.', 'e', 'E' and sign characters
    // here. Locale-independent from_chars (strtod would expect a ','
    // decimal point under some locales) parses a prefix of it; it
    // rejects a leading '+', which the scanner allows. Starting from a
    // digit or '.', from_chars only reads token characters, so it runs
    // straight on the text and the scan below finds the token's end.
    std::size_t first = c == '+' ? start + 1 : start;
    std::size_t mantissa =
        first < text_.size() && text_[first] == '-' ? first + 1 : first;
    char lead = mantissa < text_.size() ? text_[mantissa] : '\0';
    double value = 0.0;
    std::errc error = std::errc::invalid_argument;
    if ((lead >= '0' && lead <= '9') || lead == '.') {
        auto r = std::from_chars(text_.data() + first,
                                 text_.data() + text_.size(), value);
        error = r.ec;
        if (error == std::errc())
            pos_ = (std::size_t)(r.ptr - text_.data());
    }
    bool sawDigit = error == std::errc();
    while (pos_ < text_.size()) {
        char d = text_[pos_];
        if (d >= '0' && d <= '9')
            sawDigit = true;
        else if (d != '.' && d != 'e' && d != 'E' && d != '-' && d != '+')
            break;
        ++pos_;
    }
    if (!sawDigit)
        failAt(start, "expected a value");
    if (error != std::errc())
        failAt(start, "bad number");
    return value;
}

std::string_view
JsonReader::string()
{
    expect('"');
    // Most strings hold no escape: return them as a view of the text.
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' &&
           text_[pos_] != '\\')
        ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '"')
        return text_.substr(start, pos_++ - start);
    unescaped_.assign(text_.data() + start, pos_ - start);
    while (true) {
        if (pos_ >= text_.size())
            fail("unterminated string");
        char c = text_[pos_++];
        if (c == '"')
            break;
        if (c != '\\') {
            unescaped_ += c;
            continue;
        }
        if (pos_ >= text_.size())
            fail("dangling escape");
        switch (text_[pos_++]) {
          case '"':  unescaped_ += '"'; break;
          case '\\': unescaped_ += '\\'; break;
          case '/':  unescaped_ += '/'; break;
          case 'n':  unescaped_ += '\n'; break;
          case 't':  unescaped_ += '\t'; break;
          case 'r':  unescaped_ += '\r'; break;
          case 'b':  unescaped_ += '\b'; break;
          case 'f':  unescaped_ += '\f'; break;
          case 'u':  appendCodePoint(unescaped_); break;
          default:   fail("unsupported escape sequence");
        }
    }
    return unescaped_;
}

/** The four hex digits of a \u escape, `pos_` just past the 'u'. */
unsigned
JsonReader::hex4()
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

/** Decode one \u escape (a surrogate pair takes two) and append the
 *  code point as UTF-8. A lone surrogate fails at its offset. */
void
JsonReader::appendCodePoint(std::string &out)
{
    std::size_t escape = pos_ - 2;
    unsigned code = hex4();
    if (code >= 0xDC00 && code <= 0xDFFF)
        failAt(escape, "lone low surrogate in \\u escape");
    if (code >= 0xD800 && code <= 0xDBFF) {
        if (text_.substr(pos_, 2) != "\\u")
            failAt(escape, "lone high surrogate in \\u escape");
        pos_ += 2;
        unsigned low = hex4();
        if (low < 0xDC00 || low > 0xDFFF)
            failAt(escape, "lone high surrogate in \\u escape");
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

void
JsonReader::end()
{
    skipWhitespace();
    if (pos_ < text_.size())
        fail("trailing content after document");
}

/**
 * Keeps its own stack of open containers, so reading never recurses;
 * the stack stops at kMaxDepth, because the finished tree's destructor
 * and dump() do recurse. A repeated member name fails once its value
 * has been read, and anything after the value fails too.
 */
JsonValue
JsonValue::read(JsonReader &reader)
{
    struct Open
    {
        JsonValue container;
        std::string key; ///< the member its next value fills
    };
    std::vector<Open> open;
    while (true) {
        // Start the value at the reader's position: a scalar is whole
        // at once, a container opens.
        JsonValue value;
        bool whole = true;
        Kind kind = reader.peek();
        if ((kind == Kind::Object || kind == Kind::Array) &&
            open.size() == kMaxDepth) {
            reader.fail("nesting deeper than " + std::to_string(kMaxDepth) +
                        " levels");
        }
        switch (kind) {
          case Kind::Object:
            reader.beginObject();
            open.emplace_back();
            open.back().container.kind_ = Kind::Object;
            whole = false;
            break;
          case Kind::Array:
            reader.beginArray();
            open.emplace_back();
            open.back().container.kind_ = Kind::Array;
            whole = false;
            break;
          case Kind::String:
            value.kind_ = Kind::String;
            value.string_ = reader.string();
            break;
          case Kind::Bool:
            value.kind_ = Kind::Bool;
            value.bool_ = reader.boolean();
            break;
          case Kind::Null:
            reader.null();
            break;
          case Kind::Number:
            value.kind_ = Kind::Number;
            value.number_ = reader.number();
            break;
        }
        // File each whole value into its container, and every
        // container that closes behind it, until one has another
        // member or element to read.
        while (true) {
            if (whole) {
                if (open.empty()) {
                    reader.end();
                    return value;
                }
                Open &parent = open.back();
                JsonValue &container = parent.container;
                if (container.kind_ == Kind::Array) {
                    container.array_.push_back(std::move(value));
                } else if (container.object_
                               .try_emplace(parent.key, std::move(value))
                               .second) {
                    container.memberOrder_.push_back(parent.key);
                } else {
                    reader.fail("duplicate member '" + parent.key + "'");
                }
            }
            Open &top = open.back();
            std::string_view name;
            bool more = top.container.kind_ == Kind::Array
                ? reader.nextElement()
                : reader.nextMember(name);
            if (more) {
                top.key.assign(name);
                break;
            }
            value = std::move(top.container);
            open.pop_back();
            whole = true;
        }
    }
}

JsonValue
JsonValue::parse(const std::string &text)
{
    JsonReader reader(text);
    return read(reader);
}

bool
JsonValue::tryParse(const std::string &text, JsonValue &out)
{
    JsonValue value;
    if (!JsonReader::tryRead(text, [&](JsonReader &r) { value = read(r); }))
        return false;
    out = std::move(value);
    return true;
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        fatal("cannot open config file '", path, "'");
    JsonReader reader(text, path);
    return read(reader);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.clear();
    // Sized up front for a regular file; a pipe, which has no size,
    // grows as it is read.
    std::error_code ec;
    std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec)
        out.reserve((std::size_t)size);
    char chunk[1 << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
        out.append(chunk, (std::size_t)in.gcount());
    return !in.bad();
}

} // namespace nvmexp
