#include "store/serialize.hh"

#include <bitset>
#include <limits>

#include "util/logging.hh"

namespace nvmexp {
namespace store {

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

/** The member being decoded; its key names every rejection. */
class Member
{
  public:
    Member(JsonReader &r, std::string_view key) : r_(r), key_(key) {}

    void
    read(double &out)
    {
        expect(JsonValue::Kind::Number, "a number");
        out = r_.number();
    }

    void
    read(bool &out)
    {
        expect(JsonValue::Kind::Bool, "a boolean");
        out = r_.boolean();
    }

    void
    read(std::string &out)
    {
        expect(JsonValue::Kind::String, "a string");
        out.assign(r_.string());
    }

    void
    read(int &out)
    {
        out = (int)whole(std::numeric_limits<int>::max());
    }

    void
    read(std::size_t &out)
    {
        out = (std::size_t)whole(kMaxExactInteger);
    }

    /** A nested record. */
    template <typename Record>
    void
    read(Record &out)
    {
        expect(JsonValue::Kind::Object, "an object");
        readJson(r_, out);
    }

    /** An array of records, appended to `out`. */
    template <typename Record>
    void
    readEach(std::vector<Record> &out)
    {
        expect(JsonValue::Kind::Array, "an array");
        r_.beginArray();
        std::size_t begin = r_.offset();
        while (r_.nextElement()) {
            out.emplace_back();
            read(out.back());
            // Records of one kind encode to about the same size: the
            // first sizes the rest, so the rows are never moved.
            if (out.size() == 1) {
                std::size_t first = r_.offset() - begin;
                out.reserve(1 + (r_.size() - r_.offset()) / first);
            }
        }
    }

    /** The store format version, which must be this build's. */
    void
    readFormat()
    {
        int format = 0;
        read(format);
        if (format != kFormatVersion) {
            reject("is " + std::to_string(format) +
                   ", this build reads format " +
                   std::to_string(kFormatVersion));
        }
    }

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

  private:
    /** A whole number in [0, max], tested as a double before any
     *  cast (out of range, the cast is undefined behavior). */
    double
    whole(std::int64_t max)
    {
        double value = 0.0;
        read(value);
        if (!isWholeNumber(value, 0.0, (double)max)) {
            reject("must be a whole number in [0, " + std::to_string(max) +
                   "], got " + JsonValue::formatNumber(value));
        }
        return value;
    }

    void
    expect(JsonValue::Kind kind, const char *what)
    {
        if (r_.peek() != kind)
            reject(std::string("must be ") + what);
    }

    [[noreturn]] void
    reject(const std::string &what)
    {
        r_.reject("\"" + std::string(key_) + "\" " + what);
    }

    JsonReader &r_;
    std::string_view key_;
};

/** One member of a record's encoding and how to decode its value. */
template <typename Record>
struct Field
{
    std::string_view key;
    void (*read)(Member &, Record &) = nullptr;
    bool optional = false;
};

/** Field::read for a member stored straight in `Record::*field`. */
template <auto field, typename Record>
void
into(Member &m, Record &record)
{
    m.read(record.*field);
}

/**
 * Decode the object at the reader's position, member by member, into
 * `record` through `fields` (listed in writer order, which is tried
 * first). A repeated member fails like the DOM's; an unknown member or
 * a missing required one is rejected by name. @return which fields
 * were present.
 */
template <typename Record, std::size_t N>
std::bitset<N>
readFields(JsonReader &r, const Field<Record> (&fields)[N], Record &record)
{
    std::bitset<N> seen;
    std::size_t next = 0;
    std::string_view name;
    r.beginObject();
    while (r.nextMember(name)) {
        std::size_t i = next;
        if (i >= N || fields[i].key != name)
            for (i = 0; i < N && fields[i].key != name; ++i) {
            }
        if (i == N)
            r.reject("unknown member \"" + std::string(name) + "\"");
        if (seen[i])
            r.fail("duplicate member '" + std::string(name) + "'");
        seen.set(i);
        Member member(r, fields[i].key);
        fields[i].read(member, record);
        next = i + 1;
    }
    for (std::size_t i = 0; i < N; ++i) {
        if (!seen[i] && !fields[i].optional)
            r.reject("missing member \"" + std::string(fields[i].key) +
                     "\"");
    }
    return seen;
}

} // namespace

void
writeJson(JsonWriter &w, const MemCell &cell)
{
    w.beginObject();
    w.key("name").string(cell.name);
    w.key("tech").string(techName(cell.tech));
    w.key("flavor").string(flavorKey(cell.flavor));
    w.key("sense_mode").string(senseModeKey(cell.senseMode));
    w.key("bits_per_cell").number(cell.bitsPerCell);
    w.key("area_f2").number(cell.areaF2);
    w.key("aspect_ratio").number(cell.aspectRatio);
    w.key("read_voltage").number(cell.readVoltage);
    w.key("write_voltage").number(cell.writeVoltage);
    w.key("resistance_on").number(cell.resistanceOn);
    w.key("resistance_off").number(cell.resistanceOff);
    w.key("set_pulse").number(cell.setPulse);
    w.key("reset_pulse").number(cell.resetPulse);
    w.key("set_current").number(cell.setCurrent);
    w.key("reset_current").number(cell.resetCurrent);
    w.key("read_energy_per_bit").number(cell.readEnergyPerBit);
    w.key("endurance").number(cell.endurance);
    w.key("retention").number(cell.retention);
    w.key("non_volatile").boolean(cell.nonVolatile);
    w.key("cell_leakage").number(cell.cellLeakage);
    w.key("min_node_nm").number(cell.minNodeNm);
    w.key("mlc_capable").boolean(cell.mlcCapable);
    w.endObject();
}

constexpr Field<MemCell> kCellFields[] = {
    {"name", into<&MemCell::name>},
    {"tech",
     [](Member &m, MemCell &c) {
         m.readName(c.tech, (int)CellTech::NumTech, techName);
     }},
    {"flavor",
     [](Member &m, MemCell &c) { m.readName(c.flavor, 4, flavorKey); }},
    {"sense_mode",
     [](Member &m, MemCell &c) { m.readName(c.senseMode, 4, senseModeKey); }},
    {"bits_per_cell", into<&MemCell::bitsPerCell>},
    {"area_f2", into<&MemCell::areaF2>},
    {"aspect_ratio", into<&MemCell::aspectRatio>},
    {"read_voltage", into<&MemCell::readVoltage>},
    {"write_voltage", into<&MemCell::writeVoltage>},
    {"resistance_on", into<&MemCell::resistanceOn>},
    {"resistance_off", into<&MemCell::resistanceOff>},
    {"set_pulse", into<&MemCell::setPulse>},
    {"reset_pulse", into<&MemCell::resetPulse>},
    {"set_current", into<&MemCell::setCurrent>},
    {"reset_current", into<&MemCell::resetCurrent>},
    {"read_energy_per_bit", into<&MemCell::readEnergyPerBit>},
    {"endurance", into<&MemCell::endurance>},
    {"retention", into<&MemCell::retention>},
    {"non_volatile", into<&MemCell::nonVolatile>},
    {"cell_leakage", into<&MemCell::cellLeakage>},
    {"min_node_nm", into<&MemCell::minNodeNm>},
    {"mlc_capable", into<&MemCell::mlcCapable>},
};

void
readJson(JsonReader &r, MemCell &cell)
{
    readFields(r, kCellFields, cell);
}

void
writeJson(JsonWriter &w, const TrafficPattern &traffic)
{
    w.beginObject();
    w.key("name").string(traffic.name);
    w.key("reads_per_sec").number(traffic.readsPerSec);
    w.key("writes_per_sec").number(traffic.writesPerSec);
    w.key("exec_time").number(traffic.execTime);
    w.endObject();
}

constexpr Field<TrafficPattern> kTrafficFields[] = {
    {"name", into<&TrafficPattern::name>},
    {"reads_per_sec", into<&TrafficPattern::readsPerSec>},
    {"writes_per_sec", into<&TrafficPattern::writesPerSec>},
    {"exec_time", into<&TrafficPattern::execTime>},
};

void
readJson(JsonReader &r, TrafficPattern &traffic)
{
    readFields(r, kTrafficFields, traffic);
}

void
writeJson(JsonWriter &w, const Organization &org)
{
    w.beginObject();
    w.key("banks").number(org.banks);
    w.key("subarrays_per_bank").number(org.subarraysPerBank);
    w.key("rows").number(org.subarray.rows);
    w.key("cols").number(org.subarray.cols);
    w.key("sensed_bits").number(org.subarray.sensedBits);
    w.endObject();
}

constexpr Field<Organization> kOrganizationFields[] = {
    {"banks", into<&Organization::banks>},
    {"subarrays_per_bank", into<&Organization::subarraysPerBank>},
    {"rows", [](Member &m, Organization &o) { m.read(o.subarray.rows); }},
    {"cols", [](Member &m, Organization &o) { m.read(o.subarray.cols); }},
    {"sensed_bits",
     [](Member &m, Organization &o) { m.read(o.subarray.sensedBits); }},
};

void
readJson(JsonReader &r, Organization &org)
{
    readFields(r, kOrganizationFields, org);
}

void
writeJson(JsonWriter &w, const reliability::ReliabilityResult &rel)
{
    w.beginObject();
    w.key("scheme").string(rel.scheme);
    w.key("scrub_interval_sec").number(rel.scrubIntervalSec);
    w.key("raw_ber").number(rel.rawBer);
    w.key("scrubbed_ber").number(rel.scrubbedBer);
    w.key("uncorrectable_word_rate").number(rel.uncorrectableWordRate);
    w.key("uncorrectable_image_rate").number(rel.uncorrectableImageRate);
    w.key("ecc_overhead").number(rel.eccOverhead);
    w.endObject();
}

using reliability::ReliabilityResult;

constexpr Field<ReliabilityResult> kReliabilityFields[] = {
    {"scheme", into<&ReliabilityResult::scheme>},
    {"scrub_interval_sec", into<&ReliabilityResult::scrubIntervalSec>},
    {"raw_ber", into<&ReliabilityResult::rawBer>},
    {"scrubbed_ber", into<&ReliabilityResult::scrubbedBer>},
    {"uncorrectable_word_rate",
     into<&ReliabilityResult::uncorrectableWordRate>},
    {"uncorrectable_image_rate",
     into<&ReliabilityResult::uncorrectableImageRate>},
    {"ecc_overhead", into<&ReliabilityResult::eccOverhead>},
};

void
readJson(JsonReader &r, ReliabilityResult &rel)
{
    readFields(r, kReliabilityFields, rel);
}

void
writeJson(JsonWriter &w, const ArrayResult &array)
{
    w.beginObject();
    w.key("cell");
    writeJson(w, array.cell);
    w.key("node_nm").number(array.nodeNm);
    w.key("capacity_bytes").number(array.capacityBytes);
    w.key("word_bits").number(array.wordBits);
    w.key("org");
    writeJson(w, array.org);
    w.key("read_latency").number(array.readLatency);
    w.key("write_latency").number(array.writeLatency);
    w.key("read_energy").number(array.readEnergy);
    w.key("write_energy").number(array.writeEnergy);
    w.key("leakage").number(array.leakage);
    w.key("area_m2").number(array.areaM2);
    w.key("area_efficiency").number(array.areaEfficiency);
    w.key("read_bandwidth").number(array.readBandwidth);
    w.key("write_bandwidth").number(array.writeBandwidth);
    w.endObject();
}

constexpr Field<ArrayResult> kArrayFields[] = {
    {"cell", into<&ArrayResult::cell>},
    {"node_nm", into<&ArrayResult::nodeNm>},
    {"capacity_bytes", into<&ArrayResult::capacityBytes>},
    {"word_bits", into<&ArrayResult::wordBits>},
    {"org", into<&ArrayResult::org>},
    {"read_latency", into<&ArrayResult::readLatency>},
    {"write_latency", into<&ArrayResult::writeLatency>},
    {"read_energy", into<&ArrayResult::readEnergy>},
    {"write_energy", into<&ArrayResult::writeEnergy>},
    {"leakage", into<&ArrayResult::leakage>},
    {"area_m2", into<&ArrayResult::areaM2>},
    {"area_efficiency", into<&ArrayResult::areaEfficiency>},
    {"read_bandwidth", into<&ArrayResult::readBandwidth>},
    {"write_bandwidth", into<&ArrayResult::writeBandwidth>},
};

void
readJson(JsonReader &r, ArrayResult &array)
{
    readFields(r, kArrayFields, array);
}

void
writeJson(JsonWriter &w, const EvalResult &result)
{
    w.beginObject();
    w.key("array");
    writeJson(w, result.array);
    w.key("traffic");
    writeJson(w, result.traffic);
    w.key("dynamic_power").number(result.dynamicPower);
    w.key("leakage_power").number(result.leakagePower);
    w.key("total_power").number(result.totalPower);
    w.key("latency_load").number(result.latencyLoad);
    w.key("slowdown").number(result.slowdown);
    w.key("total_access_latency").number(result.totalAccessLatency);
    w.key("meets_read_bandwidth").boolean(result.meetsReadBandwidth);
    w.key("meets_write_bandwidth").boolean(result.meetsWriteBandwidth);
    w.key("reliability");
    writeJson(w, result.reliability);
    w.key("lifetime_sec").number(result.lifetimeSec);
    w.endObject();
}

constexpr Field<EvalResult> kEvalFields[] = {
    {"array", into<&EvalResult::array>},
    {"traffic", into<&EvalResult::traffic>},
    {"dynamic_power", into<&EvalResult::dynamicPower>},
    {"leakage_power", into<&EvalResult::leakagePower>},
    {"total_power", into<&EvalResult::totalPower>},
    {"latency_load", into<&EvalResult::latencyLoad>},
    {"slowdown", into<&EvalResult::slowdown>},
    {"total_access_latency", into<&EvalResult::totalAccessLatency>},
    {"meets_read_bandwidth", into<&EvalResult::meetsReadBandwidth>},
    {"meets_write_bandwidth", into<&EvalResult::meetsWriteBandwidth>},
    {"reliability", into<&EvalResult::reliability>},
    {"lifetime_sec", into<&EvalResult::lifetimeSec>},
};

void
readJson(JsonReader &r, EvalResult &result)
{
    readFields(r, kEvalFields, result);
}

void
writeJson(JsonWriter &w, const std::vector<EvalResult> &results)
{
    w.beginObject();
    w.key("format").number(kFormatVersion);
    w.key("results").beginArray();
    for (const auto &result : results)
        writeJson(w, result);
    w.endArray();
    w.endObject();
}

void
readJson(JsonReader &r, std::vector<EvalResult> &results)
{
    using Results = std::vector<EvalResult>;
    static constexpr Field<Results> fields[] = {
        {"format", [](Member &m, Results &) { m.readFormat(); }},
        {"results", [](Member &m, Results &rows) { m.readEach(rows); }},
    };
    results.clear();
    readFields(r, fields, results);
}

void
readJson(JsonReader &r, JournalEntry &entry)
{
    static constexpr Field<JournalEntry> fields[] = {
        {"slot", into<&JournalEntry::slot>},
        {"result", into<&JournalEntry::result>},
    };
    readFields(r, fields, entry);
}

void
readJson(JsonReader &r, CacheEntry &entry)
{
    static constexpr Field<CacheEntry> fields[] = {
        {"key", into<&CacheEntry::key>},
        {"array", into<&CacheEntry::array>, true},
        {"invalid", into<&CacheEntry::invalid>, true},
    };
    entry.invalid = false;
    auto seen = readFields(r, fields, entry);
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
