/**
 * @file
 * JSON serialization for the result store: lossless, round-trippable
 * encodings of ArrayResult and EvalResult (and the MemCell, traffic,
 * and organization records they embed).
 *
 * Encoders stream straight into a JsonWriter (no DOM); decoders read
 * a parsed JsonValue. Doubles are written in shortest-exact form
 * (util/json), so decoding what writeJson wrote reproduces every field
 * bit-for-bit — the property the characterization cache, resumable
 * checkpoints, and golden-file regression tier all depend on.
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

/** Each writeJson emits one JSON object at the writer's position,
 *  members in a fixed order; the *FromJson decoders read it back. */
void writeJson(JsonWriter &w, const MemCell &cell);
MemCell cellFromJson(const JsonValue &doc);

void writeJson(JsonWriter &w, const TrafficPattern &traffic);
TrafficPattern trafficFromJson(const JsonValue &doc);

void writeJson(JsonWriter &w, const Organization &org);
Organization organizationFromJson(const JsonValue &doc);

void writeJson(JsonWriter &w, const reliability::ReliabilityResult &rel);
reliability::ReliabilityResult
reliabilityResultFromJson(const JsonValue &doc);

void writeJson(JsonWriter &w, const ArrayResult &array);
ArrayResult arrayResultFromJson(const JsonValue &doc);

void writeJson(JsonWriter &w, const EvalResult &result);
EvalResult evalResultFromJson(const JsonValue &doc);

/** Whole-sweep encodings: {"format": v, "results": [...]}. */
void writeJson(JsonWriter &w, const std::vector<EvalResult> &results);
std::vector<EvalResult> evalResultsFromJson(const JsonValue &doc);

/** Exact field-by-field equality via the serialized form: doubles
 *  must match bit-for-bit, and (unlike operator== on doubles) two
 *  NaN fields compare equal — serialized state is what's compared. */
bool identical(const ArrayResult &a, const ArrayResult &b);
bool identical(const EvalResult &a, const EvalResult &b);

} // namespace store
} // namespace nvmexp

#endif // NVMEXP_STORE_SERIALIZE_HH
