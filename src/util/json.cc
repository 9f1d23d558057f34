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
    std::string path = render(path_);
    fatal(source.empty() ? "JSON document" : "'" + source + "'", where,
          path.empty() ? path : path + ": ", what);
}

std::string
JsonReader::render(const PathStep *step)
{
    std::string path;
    for (; step; step = step->parent_) {
        std::string part(step->key_);
        if (step->index != PathStep::kNoIndex) {
            part += '[';
            part += std::to_string(step->index);
            part += ']';
        }
        if (!path.empty()) {
            part += '.';
            part += path;
        }
        path = std::move(part);
    }
    return path;
}

void
JsonReader::PathStep::reject(std::string_view what) const
{
    if (parent_ || index != kNoIndex)
        reader_.reject(what);
    // A top-level member is named in quotes, with no path before it.
    reader_.path_ = nullptr;
    reader_.reject("\"" + std::string(key_) + "\" " + std::string(what));
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
 * Keeps its own stack of open containers, so skipping never recurses;
 * the stack stops at kMaxDepth, so a decoder that recurses once per
 * level of what it skipped stays far from the end of the stack.
 */
void
JsonReader::skip()
{
    std::string open; // '{' or '[' per open container, innermost last
    while (true) {
        switch (peek()) {
          case JsonValue::Kind::Object:
          case JsonValue::Kind::Array:
            if (open.size() == JsonValue::kMaxDepth) {
                fail("nesting deeper than " +
                     std::to_string(JsonValue::kMaxDepth) + " levels");
            }
            open += text_[pos_];
            if (open.back() == '{')
                beginObject();
            else
                beginArray();
            break;
          case JsonValue::Kind::String: string(); break;
          case JsonValue::Kind::Bool: boolean(); break;
          case JsonValue::Kind::Null: null(); break;
          case JsonValue::Kind::Number: number(); break;
        }
        // Close every container that ends here, until one has another
        // member or element to read.
        while (!open.empty()) {
            std::string_view name;
            if (open.back() == '{' ? nextMember(name) : nextElement())
                break;
            open.pop_back();
        }
        if (open.empty())
            return;
    }
}

JsonValue
JsonReader::value()
{
    next();
    std::size_t start = pos_;
    skip();
    return JsonValue(std::string(text_.substr(start, pos_ - start)));
}

JsonValue
JsonValue::parse(const std::string &text)
{
    JsonReader reader(text);
    reader.skip();
    reader.end();
    return JsonValue(text);
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
