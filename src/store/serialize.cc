#include "store/serialize.hh"

namespace nvmexp {
namespace store {

void
Member::readVersion(int expected, std::string_view hint)
{
    int version = 0;
    read(version);
    if (version != expected) {
        reject("must be " + std::to_string(expected) + ", got " +
               std::to_string(version) + std::string(hint));
    }
}

/** A whole number in [lo, hi], tested as a double before any cast (out
 *  of range, the cast is undefined behavior). */
double
Member::whole(std::int64_t lo, std::int64_t hi)
{
    expect(JsonValue::Kind::Number, "a number");
    double value = r_.number();
    if (!isWholeNumber(value, (double)lo, (double)hi)) {
        reject("must be a whole number in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], got " +
               JsonValue::formatNumber(value));
    }
    return value;
}

void
Member::expect(JsonValue::Kind kind, const char *what)
{
    if (r_.peek() != kind)
        reject(std::string("must be ") + what);
}

namespace {

const char *
flavorKey(CellFlavor flavor)
{
    switch (flavor) {
      case CellFlavor::Optimistic:  return "Optimistic";
      case CellFlavor::Pessimistic: return "Pessimistic";
      case CellFlavor::Reference:   return "Reference";
      case CellFlavor::Custom:      return "Custom";
    }
    panic("unhandled CellFlavor");
}

const char *
senseModeKey(SenseMode mode)
{
    switch (mode) {
      case SenseMode::Voltage:  return "Voltage";
      case SenseMode::Current:  return "Current";
      case SenseMode::FetGated: return "FetGated";
      case SenseMode::Charge:   return "Charge";
    }
    panic("unhandled SenseMode");
}

constexpr Field<MemCell> kCellFields[] = {
    field<&MemCell::name>("name"),
    named<&MemCell::tech, techName, (int)CellTech::NumTech>("tech"),
    named<&MemCell::flavor, flavorKey, 4>("flavor"),
    named<&MemCell::senseMode, senseModeKey, 4>("sense_mode"),
    field<&MemCell::bitsPerCell>("bits_per_cell"),
    field<&MemCell::areaF2>("area_f2"),
    field<&MemCell::aspectRatio>("aspect_ratio"),
    field<&MemCell::readVoltage>("read_voltage"),
    field<&MemCell::writeVoltage>("write_voltage"),
    field<&MemCell::resistanceOn>("resistance_on"),
    field<&MemCell::resistanceOff>("resistance_off"),
    field<&MemCell::setPulse>("set_pulse"),
    field<&MemCell::resetPulse>("reset_pulse"),
    field<&MemCell::setCurrent>("set_current"),
    field<&MemCell::resetCurrent>("reset_current"),
    field<&MemCell::readEnergyPerBit>("read_energy_per_bit"),
    field<&MemCell::endurance>("endurance"),
    field<&MemCell::retention>("retention"),
    field<&MemCell::nonVolatile>("non_volatile"),
    field<&MemCell::cellLeakage>("cell_leakage"),
    field<&MemCell::minNodeNm>("min_node_nm"),
    field<&MemCell::mlcCapable>("mlc_capable"),
};

constexpr Field<TrafficPattern> kTrafficFields[] = {
    field<&TrafficPattern::name>("name"),
    field<&TrafficPattern::readsPerSec>("reads_per_sec"),
    field<&TrafficPattern::writesPerSec>("writes_per_sec"),
    field<&TrafficPattern::execTime>("exec_time"),
};

constexpr Field<Organization> kOrganizationFields[] = {
    field<&Organization::banks>("banks"),
    field<&Organization::subarraysPerBank>("subarrays_per_bank"),
    field<&Organization::subarray, &SubarrayDesign::rows>("rows"),
    field<&Organization::subarray, &SubarrayDesign::cols>("cols"),
    field<&Organization::subarray, &SubarrayDesign::sensedBits>(
        "sensed_bits"),
};

using reliability::ReliabilityResult;

constexpr Field<ReliabilityResult> kReliabilityFields[] = {
    field<&ReliabilityResult::scheme>("scheme"),
    field<&ReliabilityResult::scrubIntervalSec>("scrub_interval_sec"),
    field<&ReliabilityResult::rawBer>("raw_ber"),
    field<&ReliabilityResult::scrubbedBer>("scrubbed_ber"),
    field<&ReliabilityResult::uncorrectableWordRate>(
        "uncorrectable_word_rate"),
    field<&ReliabilityResult::uncorrectableImageRate>(
        "uncorrectable_image_rate"),
    field<&ReliabilityResult::eccOverhead>("ecc_overhead"),
};

constexpr Field<ArrayResult> kArrayFields[] = {
    field<&ArrayResult::cell>("cell"),
    field<&ArrayResult::nodeNm>("node_nm"),
    field<&ArrayResult::capacityBytes>("capacity_bytes"),
    field<&ArrayResult::wordBits>("word_bits"),
    field<&ArrayResult::org>("org"),
    field<&ArrayResult::readLatency>("read_latency"),
    field<&ArrayResult::writeLatency>("write_latency"),
    field<&ArrayResult::readEnergy>("read_energy"),
    field<&ArrayResult::writeEnergy>("write_energy"),
    field<&ArrayResult::leakage>("leakage"),
    field<&ArrayResult::areaM2>("area_m2"),
    field<&ArrayResult::areaEfficiency>("area_efficiency"),
    field<&ArrayResult::readBandwidth>("read_bandwidth"),
    field<&ArrayResult::writeBandwidth>("write_bandwidth"),
};

constexpr Field<EvalResult> kEvalFields[] = {
    field<&EvalResult::array>("array"),
    field<&EvalResult::traffic>("traffic"),
    field<&EvalResult::dynamicPower>("dynamic_power"),
    field<&EvalResult::leakagePower>("leakage_power"),
    field<&EvalResult::totalPower>("total_power"),
    field<&EvalResult::latencyLoad>("latency_load"),
    field<&EvalResult::slowdown>("slowdown"),
    field<&EvalResult::totalAccessLatency>("total_access_latency"),
    field<&EvalResult::meetsReadBandwidth>("meets_read_bandwidth"),
    field<&EvalResult::meetsWriteBandwidth>("meets_write_bandwidth"),
    field<&EvalResult::reliability>("reliability"),
    field<&EvalResult::lifetimeSec>("lifetime_sec"),
};

using Results = std::vector<EvalResult>;

constexpr Field<Results> kResultsFields[] = {
    kFormatField<Results>,
    {"results",
     [](JsonWriter &w, const Results &rows) {
         w.beginArray();
         for (const auto &row : rows)
             writeJson(w, row);
         w.endArray();
     },
     [](Member &m, Results &rows) { m.readEach(rows); }},
};

constexpr Field<JournalEntry, JournalLine> kJournalFields[] = {
    {"slot",
     [](JsonWriter &w, const JournalLine &line) { writeValue(w, line.slot); },
     [](Member &m, JournalEntry &entry) { m.read(entry.slot); }},
    {"result",
     [](JsonWriter &w, const JournalLine &line) {
         writeJson(w, *line.result);
     },
     [](Member &m, JournalEntry &entry) { m.read(entry.result); }},
};

constexpr Field<CacheEntry> kCacheFields[] = {
    field<&CacheEntry::key>("key"),
    field<&CacheEntry::array>(
        "array", [](const CacheEntry &entry) { return !entry.invalid; }),
    field<&CacheEntry::invalid>(
        "invalid", [](const CacheEntry &entry) { return entry.invalid; }),
};

} // namespace

void
writeJson(JsonWriter &w, const MemCell &cell)
{
    writeFields(w, kCellFields, cell);
}

void
readJson(JsonReader &r, MemCell &cell)
{
    readFields(r, kCellFields, cell);
}

void
writeJson(JsonWriter &w, const TrafficPattern &traffic)
{
    writeFields(w, kTrafficFields, traffic);
}

void
readJson(JsonReader &r, TrafficPattern &traffic)
{
    readFields(r, kTrafficFields, traffic);
}

void
writeJson(JsonWriter &w, const Organization &org)
{
    writeFields(w, kOrganizationFields, org);
}

void
readJson(JsonReader &r, Organization &org)
{
    readFields(r, kOrganizationFields, org);
}

void
writeJson(JsonWriter &w, const ReliabilityResult &rel)
{
    writeFields(w, kReliabilityFields, rel);
}

void
readJson(JsonReader &r, ReliabilityResult &rel)
{
    readFields(r, kReliabilityFields, rel);
}

void
writeJson(JsonWriter &w, const ArrayResult &array)
{
    writeFields(w, kArrayFields, array);
}

void
readJson(JsonReader &r, ArrayResult &array)
{
    readFields(r, kArrayFields, array);
}

void
writeJson(JsonWriter &w, const EvalResult &result)
{
    writeFields(w, kEvalFields, result);
}

void
readJson(JsonReader &r, EvalResult &result)
{
    readFields(r, kEvalFields, result);
}

void
writeJson(JsonWriter &w, const Results &results)
{
    writeFields(w, kResultsFields, results);
}

void
readJson(JsonReader &r, Results &results)
{
    results.clear();
    readFields(r, kResultsFields, results);
}

void
writeJson(JsonWriter &w, const JournalLine &line)
{
    writeFields(w, kJournalFields, line);
}

void
readJson(JsonReader &r, JournalEntry &entry)
{
    readFields(r, kJournalFields, entry);
}

void
writeJson(JsonWriter &w, const CacheEntry &entry)
{
    writeFields(w, kCacheFields, entry);
}

void
readJson(JsonReader &r, CacheEntry &entry)
{
    entry.invalid = false;
    auto seen = readFields(r, kCacheFields, entry);
    if (seen[1] == seen[2] || (seen[2] && !entry.invalid))
        r.reject("a cache entry holds \"array\" or \"invalid\": true");
}

namespace {

/** The compact encoding of one record. */
template <typename Record>
std::string
compact(const Record &record)
{
    std::string out;
    JsonWriter w(out);
    writeJson(w, record);
    return out;
}

} // namespace

bool
identical(const ArrayResult &a, const ArrayResult &b)
{
    // Serialization covers every field losslessly, so comparing the
    // compact encodings compares the structs bit-for-bit.
    return compact(a) == compact(b);
}

bool
identical(const EvalResult &a, const EvalResult &b)
{
    return compact(a) == compact(b);
}

} // namespace store
} // namespace nvmexp
