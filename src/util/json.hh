/**
 * @file
 * JSON for the configuration front-end and the result store: one pull
 * reader, one streaming writer, and a small DOM built on the reader.
 *
 * Reading: JsonReader is the one grammar. It accepts the full JSON
 * value grammar (objects, arrays, strings with every escape including
 * \uXXXX and surrogate pairs, numbers, booleans, null) plus `//` line
 * comments, which configuration files are allowed to use, and the
 * JSON5-style literals `Infinity`, `-Infinity`, and `NaN` so
 * serialized metrics (e.g. unlimited lifetimes) survive a round trip.
 * Errors are reported with line/column context via fatal(), or, for
 * input that may be corrupt, thrown for the caller to skip. The
 * JsonValue DOM (configs, queries) is parsed through a JsonReader; the
 * result store decodes its records straight from one, with no DOM.
 *
 * Writing: JsonWriter is the one emitter. Result artifacts stream
 * straight through it; the JsonValue DOM dumps through it too.
 * Doubles print in exact round-trip form (shortest decimal that
 * parses back bit-identically), so serialize -> parse -> serialize is
 * byte-stable — the property the result store's resume and
 * golden-file tiers rely on.
 */

#ifndef NVMEXP_UTIL_JSON_HH
#define NVMEXP_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nvmexp {

class JsonReader;

/** A JSON value: parsed from text or built with the make* helpers. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** Deepest container nesting parse() accepts. Deeper input fails
     *  at the opening bracket that would exceed it, so the destructor
     *  and dump(), which recurse once per level, stay far from the
     *  end of the stack whatever the input. */
    static constexpr std::size_t kMaxDepth = 512;

    /** Builders for writing (a default-constructed value is null). */
    static JsonValue makeBool(bool value);
    static JsonValue makeNumber(double value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Append to an array value; fatal() on non-arrays. */
    JsonValue &append(JsonValue element);

    /** Insert/overwrite an object member; fatal() on non-objects.
     *  First-insertion order is preserved when dumping. */
    JsonValue &set(const std::string &key, JsonValue member);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Object access. */
    bool has(const std::string &key) const;
    /** Required member; fatal() when missing. */
    const JsonValue &at(const std::string &key) const;
    /** Optional member with defaults. */
    double numberOr(const std::string &key, double dflt) const;
    bool boolOr(const std::string &key, bool dflt) const;
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;
    const std::vector<std::string> &memberNames() const;

    /** Parse a JSON document; fatal() with position on bad input,
     *  including nesting deeper than kMaxDepth. */
    static JsonValue parse(const std::string &text);

    /** Non-fatal parse for documents that may be corrupt: @return
     *  true and fill `out` on success, false (leaving `out` alone) on
     *  any syntax error. */
    static bool tryParse(const std::string &text, JsonValue &out);

    /** Parse the contents of a file; a parse error names `path`. */
    static JsonValue parseFile(const std::string &path);

    /**
     * Serialize through JsonWriter. indent >= 0 pretty-prints with
     * that many spaces per level; indent < 0 emits the compact
     * single-line form.
     */
    std::string dump(int indent = 2) const;

    /** Write dump() + trailing newline to a file, write-then-rename
     *  (writeFileAtomically); fatal() on failure. */
    void writeFile(const std::string &path) const;

    /**
     * Format a double as the shortest decimal string that parses back
     * to the exact same bits ("inf"-style values dump as Infinity/NaN
     * literals): JsonWriter::appendNumber into a new string.
     */
    static std::string formatNumber(double value);

    /**
     * Parse `text` as one complete number under the same rules the
     * JSON scanner applies: optional leading sign, decimal/scientific
     * digits via from_chars, and the Infinity/-Infinity/NaN literals
     * formatNumber() emits. Locale-independent by construction —
     * "0.5" parses as 0.5 under every LC_NUMERIC, and "0,5" is never
     * accepted (unlike strtod, which honors the locale's decimal
     * point). The strtod spellings outside the JSON grammar ("inf",
     * "nan", hex floats) are rejected too.
     *
     * @return true and fill `out` iff the entire string is a number.
     */
    static bool parseNumber(const std::string &text, double &out);

  private:
    /** The DOM builder behind parse(): the document at the reader,
     *  one value and nothing after it. */
    static JsonValue read(JsonReader &reader);

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
    std::vector<std::string> memberOrder_;
};

/**
 * Pull reader over one JSON document in memory: the one JSON grammar
 * (see the file comment). JsonValue::parse() builds its DOM through
 * one; the result store decodes records straight into structs.
 *
 * Callers walk the document in order, as JsonWriter's callers write
 * it: peek() names the kind of the next value, a typed call consumes
 * it, beginObject()/nextMember() and beginArray()/nextElement() walk
 * containers, and end() requires that nothing but whitespace follows.
 * The reader does not track nesting; it checks that each token is the
 * one its caller asks for. Repeated member names are for an object's
 * consumer to reject: the DOM by its map, record decoders by their
 * field tables.
 *
 * Failures are positioned at "line L column C". A reader calls fatal()
 * ("JSON parse error in 'SOURCE' at line L column C: what"); the
 * lenient one tryRead() runs throws Abort instead, for callers that
 * skip corrupt input.
 */
class JsonReader
{
  public:
    /** What the lenient reader of tryRead() throws on any failure:
     *  fail() throws it malformed, reject() not. */
    struct Abort
    {
        bool malformed = true;
    };

    /** A strict reader; `source` (e.g. a file path) names the document
     *  in diagnostics. Both views must outlive the reader. */
    explicit JsonReader(std::string_view text, std::string_view source = {})
        : text_(text), source_(source)
    {
    }

    /**
     * Kind of the next value, after whitespace and comments: Object,
     * Array, String, Bool, Null by its first character, and Number for
     * anything else (number() then rejects what is not one). fail()s at
     * the end of input.
     */
    JsonValue::Kind peek();

    /** Enter an object; the next call must be nextMember(). */
    void beginObject();
    /** Advance to the innermost object's next member: true with its
     *  name in `name` (valid until the next call) and the reader at its
     *  value, false once the closing brace is consumed. */
    bool nextMember(std::string_view &name);

    /** Enter an array; the next call must be nextElement(). */
    void beginArray();
    /** True with the reader at the innermost array's next element,
     *  false once the closing bracket is consumed. */
    bool nextElement();

    /** Scalars; each fail()s unless the next value is one. */
    double number();
    bool boolean();
    void null();
    /** A string value, unescaped; valid until the next call. */
    std::string_view string();

    /** Require that only whitespace and comments remain. */
    void end();

    /** Bytes consumed so far, and the document's size. */
    std::size_t offset() const { return pos_; }
    std::size_t size() const { return text_.size(); }

    /** Fail at the current position on malformed text. */
    [[noreturn]] void fail(std::string_view what) const;
    /** Fail at the current position on a well-formed document that is
     *  not what the caller reads ("'SOURCE' at line L column C: what"). */
    [[noreturn]] void reject(std::string_view what) const;

    /**
     * Run `read` on a lenient reader over `text`, then end(): true when
     * nothing failed. For input that may be torn or edited (cache
     * entries, journal lines), which the caller skips on false. On
     * false, `*malformed` (when given) tells whether it was fail() that
     * stopped the read, on text that is not JSON, rather than reject().
     */
    template <typename Read>
    static bool
    tryRead(std::string_view text, Read &&read, bool *malformed = nullptr)
    {
        JsonReader reader(text);
        reader.lenient_ = true;
        try {
            read(reader);
            reader.end();
            return true;
        } catch (const Abort &abort) {
            if (malformed)
                *malformed = abort.malformed;
            return false;
        }
    }

  private:
    [[noreturn]] void failAt(std::size_t offset, std::string_view what,
                             bool syntax = true) const;
    void skipWhitespace();
    /** The next character after whitespace; fail()s at end of input. */
    char
    next()
    {
        // Inline fast path: the reader already stands on a token.
        if (pos_ < text_.size() && (unsigned char)text_[pos_] > ' ' &&
            text_[pos_] != '/')
            return text_[pos_];
        return skipToNext();
    }
    char skipToNext();
    void expect(char c);
    /** Consume `literal` at the current position or fail. */
    void literal(std::string_view word);
    double nonFinite(bool negative);
    unsigned hex4();
    void appendCodePoint(std::string &out);

    std::string_view text_;
    std::string_view source_;
    bool lenient_ = false;
    std::size_t pos_ = 0;
    bool afterOpen_ = false; ///< a container was just entered
    std::string unescaped_;  ///< string()'s storage for escaped text
};

/**
 * Streaming JSON emitter: appends one document to a caller-owned
 * string, with no intermediate DOM. Every JSON text the program writes
 * comes from here (JsonValue::dump() walks its tree through one), so
 * artifacts, cache keys, and responses share one set of rules:
 *
 *  - Layout. indent >= 0 puts each array element and object member on
 *    its own line, indented `indent` spaces per level, with ": " after
 *    a member name; indent < 0 is the compact single-line form. Empty
 *    containers print as [] and {} in both.
 *  - Numbers. Shortest exact round-trip decimal (std::to_chars, so
 *    independent of the C locale); NaN and +/-infinity print as the
 *    NaN, Infinity, -Infinity literals JsonValue::parse() accepts.
 *  - Strings. '"' and '\\' are backslash-escaped, \b \f \n \r \t use
 *    their short escapes, every other byte below 0x20 is written as
 *    \u00XX (lower-case hex), and all other bytes, UTF-8 included,
 *    pass through unchanged.
 *
 * Calls must nest: key() only directly inside an object and followed
 * by exactly one value, every begin matched by its end. The writer
 * does not check; its callers are fixed encoders.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out, int indent = -1)
        : out_(out), indent_(indent)
    {
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** An object member's name; the next call writes its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &number(double value);
    JsonWriter &string(std::string_view value);
    JsonWriter &boolean(bool value);
    JsonWriter &null();

    /** A whole DOM value (e.g. a config fragment) at this position. */
    JsonWriter &value(const JsonValue &doc);

    /** Append one number to `out` by the rules above, outside any
     *  document layout (CSV cells, formatNumber()). */
    static void appendNumber(std::string &out, double value);

  private:
    static void appendString(std::string &out, std::string_view value);
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    /** Separator and line break before a value or member name. */
    void separate();
    void newline();

    std::string &out_;
    int indent_;
    int depth_ = 0;
    bool first_ = true;     ///< innermost open container has no element
    bool afterKey_ = false; ///< a member name awaits its value
};

/**
 * Write `bytes` to `path` so no reader ever sees a partial file: the
 * bytes go to a temporary file beside it (unique per process and call,
 * so concurrent writers of one path each rename a complete file) that
 * is then renamed over `path`. fatal() naming both paths when the write
 * or the rename fails; the temporary is removed first.
 */
void writeFileAtomically(const std::string &path, std::string_view bytes);

/** Read all of `path` into `out`; false when it cannot be read. */
bool readFile(const std::string &path, std::string &out);

/** 2^53: a double holds every whole number up to here exactly. */
constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/**
 * True when `value` is a whole number in [lo, hi]. The test runs on
 * the double, before any cast: NaN, +/-Infinity, fractions and values
 * out of range fail, where a cast would truncate or be undefined
 * behavior.
 */
bool isWholeNumber(double value, double lo, double hi);

/** Member `key` of `doc` as a whole number in [lo, hi], or a fatal
 *  naming `context` (the file), the key, and the value it holds (a
 *  missing or non-number member too). */
std::int64_t wholeNumberKey(const JsonValue &doc, const std::string &key,
                            std::int64_t lo, std::int64_t hi,
                            const std::string &context);

} // namespace nvmexp

#endif // NVMEXP_UTIL_JSON_HH
