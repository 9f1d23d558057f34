/**
 * @file
 * The result store's codec. Each stored record is declared once, as a
 * table of Fields, and that one table both writes the record (straight
 * into a JsonWriter) and reads it back (straight from a JsonReader),
 * with no DOM either way. serialize.cc holds the tables of the result
 * records (MemCell, TrafficPattern, Organization, ReliabilityResult,
 * ArrayResult, EvalResult), the results.json envelope, journal entries
 * and cache entries; the journal header and stats.json
 * (store/result_store.cc) and campaign.json (campaign/manifest.cc)
 * declare theirs with the same Field. So do the records that are only
 * read: a config's (core/config.cc) and a query's (StoreQuery, in
 * store/result_store.cc, which query.json is also written from).
 * Reading refuses an unknown or repeated member at any depth, naming
 * its member path (JsonReader::PathStep) and the known members.
 *
 * Doubles are written in shortest-exact form (util/json), so reading
 * what a table wrote reproduces every field bit-for-bit — the property
 * the characterization cache, resumable checkpoints, and golden-file
 * regression tier all depend on.
 */

#ifndef NVMEXP_STORE_SERIALIZE_HH
#define NVMEXP_STORE_SERIALIZE_HH

#include <bitset>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "celldb/cell.hh"
#include "eval/engine.hh"
#include "eval/traffic.hh"
#include "nvsim/array_model.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace store {

/** Bumped whenever an encoding changes shape; embedded in every
 *  artifact and in cache keys so stale entries never deserialize.
 *  v2: EvalResult grew the "reliability" block (ECC scheme, failure
 *  rates, overhead) and sweep fingerprints the reliability axis. */
constexpr int kFormatVersion = 2;

/** Each writeJson emits one JSON object at the writer's position,
 *  members in table order; each readJson decodes one at the reader's
 *  position into the record, as readFields below reads it. */
void writeJson(JsonWriter &w, const MemCell &cell);
void readJson(JsonReader &r, MemCell &cell);

void writeJson(JsonWriter &w, const TrafficPattern &traffic);
void readJson(JsonReader &r, TrafficPattern &traffic);

void writeJson(JsonWriter &w, const Organization &org);
void readJson(JsonReader &r, Organization &org);

void writeJson(JsonWriter &w, const reliability::ReliabilityResult &rel);
void readJson(JsonReader &r, reliability::ReliabilityResult &rel);

void writeJson(JsonWriter &w, const ArrayResult &array);
void readJson(JsonReader &r, ArrayResult &array);

void writeJson(JsonWriter &w, const EvalResult &result);
void readJson(JsonReader &r, EvalResult &result);

/** Whole-sweep encodings: {"format": v, "results": [...]}. Reading
 *  rejects any "format" but kFormatVersion. */
void writeJson(JsonWriter &w, const std::vector<EvalResult> &results);
void readJson(JsonReader &r, std::vector<EvalResult> &results);

/** A checkpoint journal entry line, {"slot": n, "result": {...}}; the
 *  slot is a whole number in [0, 2^53]. It is read into a JournalEntry
 *  and written (by ResultStore::checkpointSlot) from a JournalLine,
 *  which points at the caller's row instead of copying it. */
struct JournalEntry
{
    std::size_t slot = 0;
    EvalResult result;
};
struct JournalLine
{
    std::size_t slot = 0;
    const EvalResult *result = nullptr;
};
void writeJson(JsonWriter &w, const JournalLine &line);
void readJson(JsonReader &r, JournalEntry &entry);

/** A characterization cache entry (written by ResultStore::storeArray
 *  and storeInvalid): {"key": k, "array": {...}} or, for a design
 *  point with no valid organization, {"key": k, "invalid": true}. */
struct CacheEntry
{
    std::string key;
    bool invalid = false;
    ArrayResult array; ///< unset when invalid
};
void writeJson(JsonWriter &w, const CacheEntry &entry);
void readJson(JsonReader &r, CacheEntry &entry);

template <typename Record, typename Source>
struct Field;

template <typename T>
struct IsOptional : std::false_type
{
};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type
{
};

/** A shared handle to an immutable record (EvalResult's array and
 *  traffic): written as its pointee, read into a fresh one. */
template <typename T>
struct IsHandle : std::false_type
{
};
template <typename T>
struct IsHandle<std::shared_ptr<const T>> : std::true_type
{
    using Pointee = T;
};

/**
 * The member being read. While it lives, its key (and, inside each(),
 * the element's index) is the innermost step of the reader's member
 * path, which every rejection names.
 */
class Member
{
  public:
    Member(JsonReader &r, std::string_view key) : r_(r), step_(r, key) {}

    std::string_view key() const { return step_.key(); }
    /** The reader, at the member's value (or at the element each()
     *  stands on). */
    JsonReader &reader() { return r_; }
    /** The kind of the value the reader is at. */
    JsonValue::Kind kind() { return r_.peek(); }

    /** A boolean, a number, a string, a nested record (its readJson),
     *  or, for an integer type, a whole number in [0, INT_MAX] (int) or
     *  [0, 2^53] (wider types), checked before any cast; into a
     *  std::optional, its value; into a handle, a fresh pointee. */
    template <typename T>
    void
    read(T &out)
    {
        if constexpr (IsOptional<T>::value) {
            read(out.emplace());
        } else if constexpr (IsHandle<T>::value) {
            auto value = std::make_shared<typename IsHandle<T>::Pointee>();
            read(*value);
            out = std::move(value);
        } else if constexpr (std::is_same_v<T, bool>) {
            expect(JsonValue::Kind::Bool, "a boolean");
            out = r_.boolean();
        } else if constexpr (std::is_floating_point_v<T>) {
            expect(JsonValue::Kind::Number, "a number");
            out = r_.number();
        } else if constexpr (std::is_integral_v<T>) {
            out = (T)whole(0, sizeof(T) < sizeof(std::int64_t)
                                  ? std::numeric_limits<T>::max()
                                  : kMaxExactInteger);
        } else if constexpr (std::is_same_v<T, std::string>) {
            expect(JsonValue::Kind::String, "a string");
            out.assign(r_.string());
        } else {
            expect(JsonValue::Kind::Object, "an object");
            readJson(r_, out);
        }
    }

    /** A whole number in [lo, hi], checked before the cast. */
    template <typename Int>
    void
    read(Int &out, std::int64_t lo, std::int64_t hi)
    {
        out = (Int)whole(lo, hi);
    }

    /** An object read through `fields` into `record` (readFields). */
    template <typename Record, std::size_t N>
    auto
    read(const Field<Record, Record> (&fields)[N], Record &record)
    {
        expect(JsonValue::Kind::Object, "an object");
        return readFields(r_, fields, record);
    }

    /** An array: `element` runs once per element, with the reader at
     *  it and its index on the member path. */
    template <typename Element>
    void
    each(Element &&element)
    {
        expect(JsonValue::Kind::Array, "an array");
        r_.beginArray();
        for (step_.index = 0; r_.nextElement(); ++step_.index)
            element();
        step_.index = JsonReader::PathStep::kNoIndex;
    }

    /** An array of records, appended to `out`. */
    template <typename Record>
    void
    readEach(std::vector<Record> &out)
    {
        std::size_t begin = r_.offset();
        each([&] {
            out.emplace_back();
            read(out.back());
            // Records of one kind encode to about the same size: the
            // first sizes the rest, so the rows are rarely moved.
            if (out.size() == 1) {
                std::size_t first = r_.offset() - begin;
                out.reserve(1 + (r_.size() - r_.offset()) / first);
            }
        });
        // A short first record (a reliability sweep's "none" row)
        // reserves up to twice the rows: release a tail over 1/8.
        if (out.capacity() - out.size() > out.size() / 8)
            out.shrink_to_fit();
    }

    /** One value or a non-empty array of them: `element` runs once per
     *  value, with the reader at it. */
    template <typename Element>
    void
    oneOrMore(Element &&element)
    {
        if (kind() != JsonValue::Kind::Array) {
            element();
            return;
        }
        std::size_t count = 0;
        each([&] {
            element();
            ++count;
        });
        if (count == 0)
            reject("must not be an empty list");
    }

    /** A version number, which must be `expected`; `hint` ends the
     *  rejection. */
    void readVersion(int expected, std::string_view hint = {});

    /** An enumerator spelled as `name(e)` for one of the first `count`
     *  enumerators. */
    template <typename Enum, typename Name>
    void
    readName(Enum &out, int count, Name name)
    {
        expect(JsonValue::Kind::String, "a string");
        std::string_view text = r_.string();
        for (int i = 0; i < count; ++i) {
            if (text == name((Enum)i)) {
                out = (Enum)i;
                return;
            }
        }
        std::string known;
        for (int i = 0; i < count; ++i) {
            if (i)
                known += ", ";
            known += name((Enum)i);
        }
        reject("must be one of " + known + ", got \"" + std::string(text) +
               "\"");
    }

    /** Run `check`, a validation that may fatal() (a registry lookup,
     *  a model's own checks), and refuse the member with its message. */
    template <typename Check>
    void
    check(Check &&check)
    {
        std::string message = fatalMessage(check);
        if (!message.empty())
            reject(message);
    }

    /** Refuse the value (JsonReader::PathStep::reject()): a top-level
     *  member as "KEY" `what`, a nested one by its path, as in
     *  `cells[1].area_f2: what`. */
    [[noreturn]] void reject(const std::string &what) const
    {
        step_.reject(what);
    }

  private:
    double whole(std::int64_t lo, std::int64_t hi);
    void expect(JsonValue::Kind kind, const char *what);

    JsonReader &r_;
    JsonReader::PathStep step_;
};

/** Write `value` as Member::read reads it back. */
template <typename T>
void
writeValue(JsonWriter &w, const T &value)
{
    if constexpr (IsHandle<T>::value)
        writeValue(w, *value);
    else if constexpr (std::is_same_v<T, bool>)
        w.boolean(value);
    else if constexpr (std::is_arithmetic_v<T>)
        w.number((double)value);
    else if constexpr (std::is_same_v<T, std::string>)
        w.string(value);
    else
        writeJson(w, value);
}

/**
 * One member of a record's encoding: its key, how to write it from a
 * Source and how to read it into a Record (the same type, except where
 * writing must not copy: see JournalLine). A field with `present` is
 * written only when present(source) holds, and may be missing when
 * read, as may an `optional` one; every other field is required. A
 * record that is only read (a config) has fields with no `write`.
 */
template <typename Record, typename Source = Record>
struct Field
{
    std::string_view key;
    void (*write)(JsonWriter &, const Source &) = nullptr;
    void (*read)(Member &, Record &) = nullptr;
    bool (*present)(const Source &) = nullptr;
    /** May be missing when read, though always written. */
    bool optional = false;
    /** Left out of the known members an unknown one is refused with:
     *  a retired member, whose read refuses it naming what replaced
     *  it. */
    bool hidden = false;
};

/** The class a pointer to member points into (never called). */
template <typename Class, typename Type>
Class recordOf(Type Class::*);

/** The field for member `first` of a record (followed through `rest`
 *  into nested structs): written by writeValue, read by Member::read. */
template <auto first, auto... rest>
constexpr auto
field(std::string_view key,
      bool (*present)(const decltype(recordOf(first)) &) = nullptr)
{
    using Record = decltype(recordOf(first));
    return Field<Record>{
        key,
        [](JsonWriter &w, const Record &r) {
            writeValue(w, ((r.*first) .* ... .* rest));
        },
        [](Member &m, Record &r) { m.read(((r.*first) .* ... .* rest)); },
        present};
}

/** The optional field for member `first` (through `rest`) of a record
 *  that is only read: Member::read decodes it. */
template <auto first, auto... rest>
constexpr auto
option(std::string_view key)
{
    using Record = decltype(recordOf(first));
    return Field<Record>{
        key, nullptr,
        [](Member &m, Record &r) { m.read(((r.*first) .* ... .* rest)); },
        nullptr, true};
}

/** A field of a record that is only read, decoded by `read`; it may be
 *  missing unless `required`. */
template <typename Record>
constexpr Field<Record>
readOnly(std::string_view key, void (*read)(Member &, Record &),
         bool required = false)
{
    return Field<Record>{key, nullptr, read, nullptr, !required};
}

/** The field for enum member `member`, spelled `name(value)`, one of
 *  the first `count` enumerators. */
template <auto member, auto name, int count>
constexpr auto
named(std::string_view key)
{
    using Record = decltype(recordOf(member));
    return Field<Record>{
        key,
        [](JsonWriter &w, const Record &r) { w.string(name(r.*member)); },
        [](Member &m, Record &r) { m.readName(r.*member, count, name); }};
}

/** A document's "format" member: written as kFormatVersion, and read
 *  only when it is that. */
template <typename Record>
constexpr Field<Record> kFormatField = {
    "format",
    [](JsonWriter &w, const Record &) { w.number(kFormatVersion); },
    [](Member &m, Record &) {
        m.readVersion(kFormatVersion, " (the store format this build reads)");
    }};

/** Write `source` as one object: each field under its key, in table
 *  order, an optional one only when present. */
template <typename Record, typename Source, std::size_t N>
void
writeFields(JsonWriter &w, const Field<Record, Source> (&fields)[N],
            const Source &source)
{
    w.beginObject();
    for (const auto &f : fields) {
        if (f.present && !f.present(source))
            continue;
        w.key(f.key);
        f.write(w, source);
    }
    w.endObject();
}

/** The index of the field keyed `name`, trying `hint` first; a
 *  rejection naming the member and every key of `fields` when there is
 *  none. */
template <typename Record, typename Source, std::size_t N>
std::size_t
fieldIndex(JsonReader &r, const Field<Record, Source> (&fields)[N],
           std::string_view name, std::size_t hint = 0)
{
    if (hint < N && fields[hint].key == name)
        return hint;
    for (std::size_t i = 0; i < N; ++i)
        if (fields[i].key == name)
            return i;
    std::string known;
    for (const auto &f : fields)
        if (!f.hidden)
            known += (known.empty() ? "" : ", ") + std::string(f.key);
    r.reject("unknown member \"" + std::string(name) + "\" (known: " +
             known + ")");
}

/**
 * Read the object at the reader's position into `record` through
 * `fields` (listed in writer order, which is tried first). Members may
 * come in any order; a missing required member, a repeated or unknown
 * one, a wrong kind or a bad integer fails naming the key, through
 * JsonReader::reject() (fail() for a repeated member, and for malformed
 * text), so a lenient reader turns it into a skip.
 * @return which fields were present.
 */
template <typename Record, typename Source, std::size_t N>
std::bitset<N>
readFields(JsonReader &r, const Field<Record, Source> (&fields)[N],
           Record &record)
{
    std::bitset<N> seen;
    std::size_t next = 0;
    std::string_view name;
    r.beginObject();
    while (r.nextMember(name)) {
        std::size_t i = fieldIndex(r, fields, name, next);
        if (seen[i])
            r.fail("duplicate member '" + std::string(name) + "'");
        seen.set(i);
        Member member(r, fields[i].key);
        fields[i].read(member, record);
        next = i + 1;
    }
    for (std::size_t i = 0; i < N; ++i) {
        if (!seen[i] && !fields[i].present && !fields[i].optional)
            r.reject("missing member \"" + std::string(fields[i].key) +
                     "\"");
    }
    return seen;
}

/** readJson over all of `text` on a strict reader: anything malformed
 *  is fatal, the message naming `source` (e.g. the file). */
template <typename Record>
void
readJson(std::string_view text, std::string_view source, Record &out)
{
    JsonReader reader(text, source);
    readJson(reader, out);
    reader.end();
}

/** readJson over all of `text` on a lenient reader: false on any
 *  syntax or schema error, for artifacts that may be torn or edited;
 *  `malformed` as in JsonReader::tryRead(). */
template <typename Record>
bool
tryReadJson(std::string_view text, Record &out, bool *malformed = nullptr)
{
    return JsonReader::tryRead(
        text, [&](JsonReader &r) { readJson(r, out); }, malformed);
}

/** readJson over the file at `path` on a strict reader; fatal()
 *  naming it when it cannot be read. */
template <typename Record>
void
readJsonFile(const std::string &path, Record &out)
{
    std::string text;
    if (!readFile(path, text))
        fatal("result store: cannot read '", path, "'");
    readJson(text, path, out);
}

/** writeJson pretty-printed (two-space indent) plus a newline, written
 *  to `path` write-then-rename (writeFileAtomically). */
template <typename Record>
void
writeJsonFile(const std::string &path, const Record &record)
{
    std::string text;
    JsonWriter w(text, 2);
    writeJson(w, record);
    text += '\n';
    writeFileAtomically(path, text);
}

/** Exact field-by-field equality via the serialized form: doubles
 *  must match bit-for-bit, and (unlike operator== on doubles) two
 *  NaN fields compare equal — serialized state is what's compared. */
bool identical(const ArrayResult &a, const ArrayResult &b);
bool identical(const EvalResult &a, const EvalResult &b);

} // namespace store
} // namespace nvmexp

#endif // NVMEXP_STORE_SERIALIZE_HH
