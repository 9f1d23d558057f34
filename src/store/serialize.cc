#include "store/serialize.hh"

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

CellFlavor
flavorFromKey(const std::string &name)
{
    for (CellFlavor f : {CellFlavor::Optimistic, CellFlavor::Pessimistic,
                         CellFlavor::Reference, CellFlavor::Custom}) {
        if (name == flavorKey(f))
            return f;
    }
    fatal("store: unknown cell flavor '", name, "'");
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

SenseMode
senseModeFromKey(const std::string &name)
{
    for (SenseMode m : {SenseMode::Voltage, SenseMode::Current,
                        SenseMode::FetGated, SenseMode::Charge}) {
        if (name == senseModeKey(m))
            return m;
    }
    fatal("store: unknown sense mode '", name, "'");
}

int
asInt(const JsonValue &doc, const std::string &key)
{
    return (int)doc.at(key).asNumber();
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

MemCell
cellFromJson(const JsonValue &doc)
{
    MemCell cell;
    cell.name = doc.at("name").asString();
    cell.tech = techFromName(doc.at("tech").asString());
    cell.flavor = flavorFromKey(doc.at("flavor").asString());
    cell.senseMode = senseModeFromKey(doc.at("sense_mode").asString());
    cell.bitsPerCell = asInt(doc, "bits_per_cell");
    cell.areaF2 = doc.at("area_f2").asNumber();
    cell.aspectRatio = doc.at("aspect_ratio").asNumber();
    cell.readVoltage = doc.at("read_voltage").asNumber();
    cell.writeVoltage = doc.at("write_voltage").asNumber();
    cell.resistanceOn = doc.at("resistance_on").asNumber();
    cell.resistanceOff = doc.at("resistance_off").asNumber();
    cell.setPulse = doc.at("set_pulse").asNumber();
    cell.resetPulse = doc.at("reset_pulse").asNumber();
    cell.setCurrent = doc.at("set_current").asNumber();
    cell.resetCurrent = doc.at("reset_current").asNumber();
    cell.readEnergyPerBit = doc.at("read_energy_per_bit").asNumber();
    cell.endurance = doc.at("endurance").asNumber();
    cell.retention = doc.at("retention").asNumber();
    cell.nonVolatile = doc.at("non_volatile").asBool();
    cell.cellLeakage = doc.at("cell_leakage").asNumber();
    cell.minNodeNm = asInt(doc, "min_node_nm");
    cell.mlcCapable = doc.at("mlc_capable").asBool();
    return cell;
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

TrafficPattern
trafficFromJson(const JsonValue &doc)
{
    TrafficPattern traffic;
    traffic.name = doc.at("name").asString();
    traffic.readsPerSec = doc.at("reads_per_sec").asNumber();
    traffic.writesPerSec = doc.at("writes_per_sec").asNumber();
    traffic.execTime = doc.at("exec_time").asNumber();
    return traffic;
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

Organization
organizationFromJson(const JsonValue &doc)
{
    Organization org;
    org.banks = asInt(doc, "banks");
    org.subarraysPerBank = asInt(doc, "subarrays_per_bank");
    org.subarray.rows = asInt(doc, "rows");
    org.subarray.cols = asInt(doc, "cols");
    org.subarray.sensedBits = asInt(doc, "sensed_bits");
    return org;
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

reliability::ReliabilityResult
reliabilityResultFromJson(const JsonValue &doc)
{
    reliability::ReliabilityResult rel;
    rel.scheme = doc.at("scheme").asString();
    rel.scrubIntervalSec = doc.at("scrub_interval_sec").asNumber();
    rel.rawBer = doc.at("raw_ber").asNumber();
    rel.scrubbedBer = doc.at("scrubbed_ber").asNumber();
    rel.uncorrectableWordRate =
        doc.at("uncorrectable_word_rate").asNumber();
    rel.uncorrectableImageRate =
        doc.at("uncorrectable_image_rate").asNumber();
    rel.eccOverhead = doc.at("ecc_overhead").asNumber();
    return rel;
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

ArrayResult
arrayResultFromJson(const JsonValue &doc)
{
    ArrayResult array;
    array.cell = cellFromJson(doc.at("cell"));
    array.nodeNm = asInt(doc, "node_nm");
    array.capacityBytes = doc.at("capacity_bytes").asNumber();
    array.wordBits = asInt(doc, "word_bits");
    array.org = organizationFromJson(doc.at("org"));
    array.readLatency = doc.at("read_latency").asNumber();
    array.writeLatency = doc.at("write_latency").asNumber();
    array.readEnergy = doc.at("read_energy").asNumber();
    array.writeEnergy = doc.at("write_energy").asNumber();
    array.leakage = doc.at("leakage").asNumber();
    array.areaM2 = doc.at("area_m2").asNumber();
    array.areaEfficiency = doc.at("area_efficiency").asNumber();
    array.readBandwidth = doc.at("read_bandwidth").asNumber();
    array.writeBandwidth = doc.at("write_bandwidth").asNumber();
    return array;
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

EvalResult
evalResultFromJson(const JsonValue &doc)
{
    EvalResult result;
    result.array = arrayResultFromJson(doc.at("array"));
    result.traffic = trafficFromJson(doc.at("traffic"));
    result.dynamicPower = doc.at("dynamic_power").asNumber();
    result.leakagePower = doc.at("leakage_power").asNumber();
    result.totalPower = doc.at("total_power").asNumber();
    result.latencyLoad = doc.at("latency_load").asNumber();
    result.slowdown = doc.at("slowdown").asNumber();
    result.totalAccessLatency =
        doc.at("total_access_latency").asNumber();
    result.meetsReadBandwidth =
        doc.at("meets_read_bandwidth").asBool();
    result.meetsWriteBandwidth =
        doc.at("meets_write_bandwidth").asBool();
    result.reliability =
        reliabilityResultFromJson(doc.at("reliability"));
    result.lifetimeSec = doc.at("lifetime_sec").asNumber();
    return result;
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

std::vector<EvalResult>
evalResultsFromJson(const JsonValue &doc)
{
    if ((int)doc.at("format").asNumber() != kFormatVersion) {
        fatal("store: results written with format ",
              doc.at("format").asNumber(), ", this build reads format ",
              kFormatVersion);
    }
    std::vector<EvalResult> results;
    for (const auto &entry : doc.at("results").asArray())
        results.push_back(evalResultFromJson(entry));
    return results;
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
