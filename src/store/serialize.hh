/**
 * @file
 * JSON serialization for the result store: lossless, round-trippable
 * encodings of ArrayResult and EvalResult (and the MemCell, traffic,
 * and organization records they embed).
 *
 * Encoders stream straight into a JsonWriter and decoders pull
 * straight from a JsonReader, with no DOM either way. Doubles are
 * written in shortest-exact form (util/json), so decoding what
 * writeJson wrote reproduces every field bit-for-bit — the property
 * the characterization cache, resumable checkpoints, and golden-file
 * regression tier all depend on.
 */

#ifndef NVMEXP_STORE_SERIALIZE_HH
#define NVMEXP_STORE_SERIALIZE_HH

#include "celldb/cell.hh"
#include "eval/engine.hh"
#include "eval/traffic.hh"
#include "nvsim/array_model.hh"
#include "util/json.hh"

namespace nvmexp {
namespace store {

/** Bumped whenever an encoding changes shape; embedded in every
 *  artifact and in cache keys so stale entries never deserialize.
 *  v2: EvalResult grew the "reliability" block (ECC scheme, failure
 *  rates, overhead) and sweep fingerprints the reliability axis. */
constexpr int kFormatVersion = 2;

/**
 * Each writeJson emits one JSON object at the writer's position,
 * members in a fixed order; each readJson decodes one at the reader's
 * position into the record. Members may come in any order, but every
 * one must be present exactly once, with its kind: a number, a
 * boolean, a string, a nested record, a name from the enum's
 * vocabulary, or, for the integer fields (bits_per_cell, node_nm,
 * word_bits, the organization counts, ...), a whole number in
 * [0, INT_MAX] checked before any cast. Anything else — a missing,
 * repeated or unknown member, a wrong kind, a bad integer — fails
 * naming the key, through JsonReader::reject() (fail() for a repeated
 * member, as in the DOM, and for malformed text), so a lenient reader
 * turns it into a skip.
 */
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

/** A checkpoint journal entry line, {"slot": n, "result": {...}}
 *  (written by ResultStore::checkpointSlot); the slot is a whole
 *  number in [0, 2^53]. */
struct JournalEntry
{
    std::size_t slot = 0;
    EvalResult result;
};
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
void readJson(JsonReader &r, CacheEntry &entry);

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
 *  syntax or schema error, for artifacts that may be torn or edited. */
template <typename Record>
bool
tryReadJson(std::string_view text, Record &out)
{
    return JsonReader::tryRead(text,
                               [&](JsonReader &r) { readJson(r, out); });
}

/** Exact field-by-field equality via the serialized form: doubles
 *  must match bit-for-bit, and (unlike operator== on doubles) two
 *  NaN fields compare equal — serialized state is what's compared. */
bool identical(const ArrayResult &a, const ArrayResult &b);
bool identical(const EvalResult &a, const EvalResult &b);

} // namespace store
} // namespace nvmexp

#endif // NVMEXP_STORE_SERIALIZE_HH
