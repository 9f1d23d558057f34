/**
 * @file
 * JSON for the configuration front-end and the result store: one pull
 * reader and one streaming writer, with no DOM.
 *
 * Reading: JsonReader is the one grammar. It accepts the full JSON
 * value grammar (objects, arrays, strings with every escape including
 * \uXXXX and surrogate pairs, numbers, booleans, null) plus `//` line
 * comments, which configuration files are allowed to use, and the
 * JSON5-style literals `Infinity`, `-Infinity`, and `NaN` so
 * serialized metrics (e.g. unlimited lifetimes) survive a round trip.
 * Errors are reported with line/column context via fatal(), or, for
 * input that may be corrupt, thrown for the caller to skip. Every
 * record (stored results, configs, queries, workload specs) decodes
 * straight from a reader through its field table (store/serialize.hh).
 *
 * Writing: JsonWriter is the one emitter; every JSON text the program
 * writes streams through it. Doubles print in exact round-trip form
 * (shortest decimal that parses back bit-identically), so serialize ->
 * parse -> serialize is byte-stable — the property the result store's
 * resume and golden-file tiers rely on.
 *
 * JsonValue is no tree: it is the checked text of one JSON document,
 * which a caller decodes with a JsonReader when it needs the values.
 */

#ifndef NVMEXP_UTIL_JSON_HH
#define NVMEXP_UTIL_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace nvmexp {

/**
 * The text of one JSON document that parse() checked: the reader's
 * grammar, one value and nothing after it, containers nested at most
 * kMaxDepth deep. A workload spec is held as one until its workload
 * decodes it (workload::expandWorkloads).
 */
class JsonValue
{
  public:
    /** What a JsonReader finds next (JsonReader::peek()). */
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Deepest container nesting parse() and JsonReader::skip()
     *  accept. Deeper input fails at the opening bracket that would
     *  exceed it, so a decoder that recurses once per level of what
     *  they accepted stays far from the end of the stack. */
    static constexpr std::size_t kMaxDepth = 512;

    /** Check `text` as one document and keep it; fatal() with position
     *  on bad input, including nesting deeper than kMaxDepth. */
    static JsonValue parse(const std::string &text);

    /** The document, byte for byte as it was parsed. */
    const std::string &text() const { return text_; }

    /**
     * Format a double as the shortest decimal string that parses back
     * to the exact same bits ("inf"-style values print as the
     * Infinity/NaN literals): JsonWriter::appendNumber into a new
     * string.
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
    friend class JsonReader;
    explicit JsonValue(std::string text) : text_(std::move(text)) {}

    std::string text_;
};

/**
 * Pull reader over one JSON document in memory: the one JSON grammar
 * (see the file comment). Record decoders read straight from one
 * (store/serialize.hh).
 *
 * Callers walk the document in order, as JsonWriter's callers write
 * it: peek() names the kind of the next value, a typed call consumes
 * it, beginObject()/nextMember() and beginArray()/nextElement() walk
 * containers, skip() passes over a whole value, and end() requires
 * that nothing but whitespace follows. The reader does not track
 * nesting; it checks that each token is the one its caller asks for.
 * Repeated member names are for an object's consumer to reject: record
 * decoders do, by their field tables. A copy of a reader is a bookmark:
 * it reads on from where the original stood, over the same text.
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

    /**
     * One step of the member path that reject() names, e.g.
     * `cells[1].area_f2`: a member `key`, and while the reader is at
     * one of its array elements, that element's `index`. A step is on
     * its reader's path while it lives; a decoder makes one for each
     * member it reads (store::Member does).
     */
    class PathStep
    {
      public:
        static constexpr std::size_t kNoIndex = ~std::size_t{0};

        PathStep(JsonReader &reader, std::string_view key)
            : reader_(reader), parent_(reader.path_), key_(key)
        {
            reader.path_ = this;
        }
        ~PathStep() { reader_.path_ = parent_; }
        PathStep(const PathStep &) = delete;
        PathStep &operator=(const PathStep &) = delete;

        std::string_view key() const { return key_; }

        /** Refuse the value at this step through reader.reject(): a
         *  top-level member as "KEY" `what`, a nested one by its path,
         *  as in `cells[1].area_f2: what`. */
        [[noreturn]] void reject(std::string_view what) const;

        std::size_t index = kNoIndex;

      private:
        friend class JsonReader;

        JsonReader &reader_;
        const PathStep *parent_;
        std::string_view key_;
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

    /** Pass over the next value, checking its grammar; it may nest
     *  JsonValue::kMaxDepth containers deep. Iterative, so any input is
     *  refused before it could exhaust the stack. */
    void skip();
    /** The next value, skip()ped, as the text it spans. */
    JsonValue value();

    /** Require that only whitespace and comments remain. */
    void end();

    /** Bytes consumed so far, and the document's size. */
    std::size_t offset() const { return pos_; }
    std::size_t size() const { return text_.size(); }

    /** Fail at the current position on malformed text. */
    [[noreturn]] void fail(std::string_view what) const;
    /** Fail at the current position on a well-formed document that is
     *  not what the caller reads ("'SOURCE' at line L column C: PATH:
     *  what", PATH the member path of the live PathSteps, when there is
     *  one). */
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
    /** The member path from the document's root to `step`, e.g.
     *  `cells[1].area_f2`; empty for none. */
    static std::string render(const PathStep *step);
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
    const PathStep *path_ = nullptr;
    bool afterOpen_ = false; ///< a container was just entered
    std::string unescaped_;  ///< string()'s storage for escaped text
};

/**
 * Streaming JSON emitter: appends one document to a caller-owned
 * string, with no intermediate DOM. Every JSON text the program writes
 * comes from here, so artifacts, cache keys, queries and responses
 * share one set of rules:
 *
 *  - Layout. indent >= 0 puts each array element and object member on
 *    its own line, indented `indent` spaces per level, with ": " after
 *    a member name; indent < 0 is the compact single-line form. Empty
 *    containers print as [] and {} in both.
 *  - Numbers. Shortest exact round-trip decimal (std::to_chars, so
 *    independent of the C locale); NaN and +/-infinity print as the
 *    NaN, Infinity, -Infinity literals JsonReader accepts.
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

} // namespace nvmexp

#endif // NVMEXP_UTIL_JSON_HH
