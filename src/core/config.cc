#include "core/config.hh"

#include <cmath>
#include <map>
#include <optional>

#include "celldb/tentpole.hh"
#include "core/dashboard.hh"
#include "metrics/metric.hh"
#include "reliability/reliability.hh"
#include "store/serialize.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace nvmexp {

MemCell
resolveCellReference(const std::string &reference)
{
    std::string base = reference;
    bool mlc = false;
    if (auto pos = base.find("+MLC2"); pos != std::string::npos) {
        mlc = true;
        base = base.substr(0, pos);
    }

    CellCatalog catalog;
    MemCell cell;
    if (base == "SRAM") {
        cell = CellCatalog::sram16();
    } else if (base == "FeFET-BG") {
        cell = CellCatalog::backGatedFeFET();
    } else if (base == "RRAM-Ref") {
        cell = catalog.rramReference();
    } else if (auto pos = base.rfind("-Opt");
               pos != std::string::npos && pos + 4 == base.size()) {
        cell = catalog.optimistic(techFromName(base.substr(0, pos)));
    } else if (auto pessPos = base.rfind("-Pess");
               pessPos != std::string::npos &&
               pessPos + 5 == base.size()) {
        cell = catalog.pessimistic(
            techFromName(base.substr(0, pessPos)));
    } else {
        fatal("unknown cell reference '", reference,
              "' (expected SRAM, <Tech>-Opt, <Tech>-Pess, RRAM-Ref, "
              "or FeFET-BG, optionally +MLC2)");
    }
    return mlc ? cell.makeMlc() : cell;
}

namespace {

using store::Field;
using store::Member;
using store::option;
using store::readOnly;

/** A custom cell as its members decode: a catalog cell ("base", a
 *  reference, or "tech", that technology's optimistic cell) and the
 *  parameters it overrides. */
struct CustomCell
{
    std::optional<MemCell> base;
    std::optional<std::string> name;
    std::optional<double> areaF2, writePulseNs, writeCurrentUa,
        writeVoltage, readVoltage, endurance, retentionSec;
};

/** A technology's optimistic catalog cell. */
MemCell
techCell(const std::string &tech)
{
    return CellCatalog().optimistic(techFromName(tech));
}

/** The catalog cell that member `m` ("base" or "tech") names. */
template <MemCell (*resolve)(const std::string &)>
void
readBaseCell(Member &m, CustomCell &c)
{
    std::string text;
    m.read(text);
    m.check([&] { c.base = resolve(text); });
}

constexpr Field<CustomCell> kCustomCellFields[] = {
    readOnly<CustomCell>("base", readBaseCell<resolveCellReference>),
    readOnly<CustomCell>("tech", readBaseCell<techCell>),
    option<&CustomCell::name>("name"),
    option<&CustomCell::areaF2>("area_f2"),
    option<&CustomCell::writePulseNs>("write_pulse_ns"),
    option<&CustomCell::writeCurrentUa>("write_current_ua"),
    option<&CustomCell::writeVoltage>("write_voltage"),
    option<&CustomCell::readVoltage>("read_voltage"),
    option<&CustomCell::endurance>("endurance"),
    option<&CustomCell::retentionSec>("retention_sec"),
};

MemCell
readCustomCell(Member &m)
{
    CustomCell spec;
    auto seen = m.read(kCustomCellFields, spec);
    if (seen[0] && seen[1]) {
        m.reader().reject("\"base\" and \"tech\" exclude each other: a "
                          "custom cell starts from one catalog cell");
    }
    if (!spec.base)
        m.reader().reject("a custom cell needs \"base\" or \"tech\"");
    MemCell cell = *spec.base;
    cell.flavor = CellFlavor::Custom;
    cell.name = spec.name.value_or(cell.name + "-custom");
    cell.areaF2 = spec.areaF2.value_or(cell.areaF2);
    if (spec.writePulseNs)
        cell.setPulse = cell.resetPulse = *spec.writePulseNs * 1e-9;
    if (spec.writeCurrentUa)
        cell.setCurrent = cell.resetCurrent = *spec.writeCurrentUa * 1e-6;
    cell.writeVoltage = spec.writeVoltage.value_or(cell.writeVoltage);
    cell.readVoltage = spec.readVoltage.value_or(cell.readVoltage);
    cell.endurance = spec.endurance.value_or(cell.endurance);
    cell.retention = spec.retentionSec.value_or(cell.retention);
    std::string message = fatalMessage([&] { cell.validate(); });
    if (!message.empty())
        m.reader().reject(message);
    return cell;
}

/** A "traffic" entry as it decodes: access rates in bytes or in
 *  counts, or a generic grid. Patterns are built from it once the
 *  config's word width is known. */
struct TrafficEntry
{
    bool grid = false;
    bool rates = false; ///< byte rates, not access counts
    std::string name = "traffic";
    double readBytesPerSec = 0.0, writeBytesPerSec = 0.0;
    double reads = 0.0, writes = 0.0, execTime = 1.0;
    double readLo = 0.0, readHi = 0.0, writeLo = 0.0, writeHi = 0.0;
    int steps = 3;
};

constexpr Field<TrafficEntry> kTrafficFields[] = {
    option<&TrafficEntry::name>("name"),
    option<&TrafficEntry::readBytesPerSec>("read_bytes_per_sec"),
    option<&TrafficEntry::writeBytesPerSec>("write_bytes_per_sec"),
    option<&TrafficEntry::reads>("reads"),
    option<&TrafficEntry::writes>("writes"),
    option<&TrafficEntry::execTime>("exec_time"),
};

void
readGridKind(Member &m, TrafficEntry &)
{
    std::string kind;
    m.read(kind);
    if (kind != "generic_grid")
        m.reject("must be \"generic_grid\", got \"" + kind + "\"");
}

constexpr Field<TrafficEntry> kGridFields[] = {
    readOnly<TrafficEntry>("kind", readGridKind, /*required=*/true),
    store::field<&TrafficEntry::readLo>("read_lo"),
    store::field<&TrafficEntry::readHi>("read_hi"),
    store::field<&TrafficEntry::writeLo>("write_lo"),
    store::field<&TrafficEntry::writeHi>("write_hi"),
    // steps^2 patterns: the largest shipped grid uses 3.
    readOnly<TrafficEntry>("steps", [](Member &m, TrafficEntry &t) {
        m.read(t.steps, 2, 1000);
    }),
};

/** An entry that names a "kind" is a grid; any other is one pattern,
 *  given by byte rates or by access counts. */
TrafficEntry
readTrafficEntry(Member &m)
{
    TrafficEntry entry;
    if (m.kind() != JsonValue::Kind::Object)
        m.reject("must be an object");
    JsonReader probe = m.reader();
    std::string_view key;
    probe.beginObject();
    while (!entry.grid && probe.nextMember(key)) {
        entry.grid = key == "kind";
        if (!entry.grid)
            probe.skip();
    }
    if (entry.grid) {
        m.read(kGridFields, entry);
        return entry;
    }
    auto seen = m.read(kTrafficFields, entry);
    entry.rates = seen[1] || seen[2];
    bool counts = seen[3] || seen[4];
    if (entry.rates && counts) {
        m.reader().reject("byte rates (\"read_bytes_per_sec\", "
                          "\"write_bytes_per_sec\") and access counts "
                          "(\"reads\", \"writes\") exclude each other");
    }
    if (!entry.rates && !counts) {
        m.reader().reject("traffic entry '" + entry.name +
                          "' needs byte rates or access counts");
    }
    return entry;
}

/** A config as its members decode, before the members that depend on
 *  each other are joined (finish()). */
struct ConfigDoc
{
    ExperimentConfig config;
    std::vector<TrafficEntry> traffic;
    std::vector<std::string> schemes;
    std::vector<double> scrubs;
};

/** An ECC scheme the reliability model knows. */
void
readScheme(Member &m, ConfigDoc &d)
{
    std::string &scheme = d.schemes.emplace_back();
    m.read(scheme);
    m.check([&] { reliability::requireEccScheme(scheme, ""); });
}

/**
 * The "reliability"/"ecc" block: the sweep's reliability axis.
 *
 *   "ecc": "secded-72-64"                       one scheme, no scrub
 *   "reliability": {"ecc": "none", ...}         one spec
 *   "reliability": {"ecc": ["none", "secded-72-64"],
 *                   "scrub_interval_sec": [0, 86400]}
 *
 * A list sweeps like cells/capacities: the axis is the cross product
 * of schemes x scrub intervals, scheme-major.
 */
constexpr Field<ConfigDoc> kReliabilityFields[] = {
    readOnly<ConfigDoc>("ecc",
                        [](Member &m, ConfigDoc &d) {
                            m.oneOrMore([&] { readScheme(m, d); });
                        }),
    readOnly<ConfigDoc>("scrub_interval_sec", [](Member &m, ConfigDoc &d) {
        m.oneOrMore([&] {
            double &scrub = d.scrubs.emplace_back();
            m.read(scrub);
            m.check([&] {
                reliability::ReliabilitySpec spec;
                spec.scrubIntervalSec = scrub;
                reliability::ReliabilityEvaluator(spec, "");
            });
        });
    }),
};

void
readReliability(Member &m, ConfigDoc &d)
{
    // Either promotes reliability columns into the dashboard.
    if (d.config.showReliability) {
        m.reader().reject("give either \"reliability\" or the \"ecc\" "
                          "shorthand, not both");
    }
    d.config.showReliability = true;
    if (m.kind() == JsonValue::Kind::String)
        readScheme(m, d);
    else if (m.kind() == JsonValue::Kind::Object)
        m.read(kReliabilityFields, d);
    else
        m.reject("must be a scheme name or an object with \"ecc\"/"
                 "\"scrub_interval_sec\"");
}

/** A workload spec, validated (workload::WorkloadSpec::read) and kept
 *  as its text for the sweep engine to expand. */
void
readWorkload(Member &m, ConfigDoc &d)
{
    JsonReader spec = m.reader();
    d.config.sweep.workloads.push_back(m.reader().value());
    workload::WorkloadSpec::read(spec);
}

/** A run setting that a config once carried: refused naming the flag
 *  that now carries it, so a file never loads to other settings than
 *  it asks for. */
void
refuseRunSetting(Member &m, ConfigDoc &)
{
    static const std::map<std::string_view, const char *> flags = {
        {"jobs", "--jobs"},
        {"out_dir", "--out"},
        {"resume", "--resume"},
        {"campaign", "`campaign plan --shards N`"},
    };
    m.reject(std::string("is a run setting, not part of the design "
                         "space; pass ") +
             flags.at(m.key()) + " on the command line instead");
}

/** The field of a run setting: refused, and hidden from the known
 *  members. */
constexpr Field<ConfigDoc>
runSetting(std::string_view key)
{
    return {key, nullptr, refuseRunSetting, nullptr, true, true};
}

/** Cells: names, "study-set", or inline custom definitions. */
void
readCells(Member &m, ConfigDoc &d)
{
    auto &cells = d.config.sweep.cells;
    m.each([&] {
        if (m.kind() == JsonValue::Kind::Object) {
            cells.push_back(readCustomCell(m));
            return;
        }
        if (m.kind() != JsonValue::Kind::String)
            m.reject("must be a cell reference or a custom cell object");
        std::string reference;
        m.read(reference);
        if (reference == "study-set") {
            auto all = CellCatalog().studyCells();
            cells.insert(cells.end(), all.begin(), all.end());
            return;
        }
        m.check([&] { cells.push_back(resolveCellReference(reference)); });
    });
    if (cells.empty())
        m.reject("lists no cells");
}

/** Capacities in MiB, each one the array designer can build. */
void
readCapacities(Member &m, ConfigDoc &d)
{
    auto &capacities = d.config.sweep.capacitiesBytes;
    capacities.clear();
    m.each([&] {
        double mib = 0.0;
        m.read(mib);
        double bytes = mib * 1024.0 * 1024.0;
        if (!std::isfinite(bytes) ||
            bytes < ArrayConfig::kMinCapacityBytes) {
            m.reject("must be finite and at least 1 KiB (0.0009765625), "
                     "got " +
                     JsonValue::formatNumber(mib));
        }
        capacities.push_back(bytes);
    });
}

void
refineMember(Member &m, ConfigDoc &d)
{
    store::readRefineMember(m, d.config.query);
}

constexpr Field<ConfigDoc> kConfigFields[] = {
    option<&ConfigDoc::config, &ExperimentConfig::name>("experiment"),
    readOnly<ConfigDoc>("cells", readCells, /*required=*/true),
    readOnly<ConfigDoc>("capacities_mib", readCapacities,
                        /*required=*/true),
    // Word width within ArrayDesigner's range; nodes within
    // techNodeFor's table.
    readOnly<ConfigDoc>("word_bits",
                        [](Member &m, ConfigDoc &d) {
                            m.read(d.config.sweep.wordBits, 8, 4096);
                        }),
    readOnly<ConfigDoc>("node_nm",
                        [](Member &m, ConfigDoc &d) {
                            m.read(d.config.sweep.nodeNm, 7, 130);
                        }),
    readOnly<ConfigDoc>("sram_node_nm",
                        [](Member &m, ConfigDoc &d) {
                            m.read(d.config.sweep.sramNodeNm, 7, 130);
                        }),
    readOnly<ConfigDoc>("targets",
                        [](Member &m, ConfigDoc &d) {
                            auto &targets = d.config.sweep.targets;
                            targets.clear();
                            m.each([&] {
                                m.readName(targets.emplace_back(),
                                           (int)allOptTargets().size(),
                                           optTargetName);
                            });
                        }),
    // Traffic: explicit patterns and/or generic grids. Optional when
    // the config names registry workloads instead.
    readOnly<ConfigDoc>("traffic",
                        [](Member &m, ConfigDoc &d) {
                            m.each([&] {
                                d.traffic.push_back(readTrafficEntry(m));
                            });
                        }),
    // Workloads: registry-dispatched traffic sources, validated here
    // (unknown names and bad parameters fail before any simulation)
    // but expanded by the sweep engine.
    readOnly<ConfigDoc>("workloads",
                        [](Member &m, ConfigDoc &d) {
                            m.each([&] { readWorkload(m, d); });
                        }),
    readOnly<ConfigDoc>("workload", readWorkload),
    readOnly<ConfigDoc>("reliability", readReliability),
    readOnly<ConfigDoc>("ecc", readReliability),
    // Refine pipeline: read exactly as a store's query.json reads it.
    readOnly<ConfigDoc>("constraints", refineMember),
    readOnly<ConfigDoc>("pareto", refineMember),
    readOnly<ConfigDoc>("top_k", refineMember),
    option<&ConfigDoc::config, &ExperimentConfig::outputCsv>("output_csv"),
    runSetting("jobs"),
    runSetting("out_dir"),
    runSetting("resume"),
    runSetting("campaign"),
};

/** Join the members that depend on each other: traffic patterns need
 *  the word width, and the reliability axis is one block. */
void
finish(JsonReader &r, ConfigDoc &d)
{
    SweepConfig &sweep = d.config.sweep;
    std::string message = fatalMessage([&] {
        for (const TrafficEntry &t : d.traffic) {
            if (t.grid) {
                auto grid = genericTrafficGrid(t.readLo, t.readHi,
                                               t.writeLo, t.writeHi,
                                               t.steps, sweep.wordBits);
                sweep.traffics.insert(sweep.traffics.end(), grid.begin(),
                                      grid.end());
            } else if (t.rates) {
                sweep.traffics.push_back(TrafficPattern::fromByteRates(
                    t.name, t.readBytesPerSec, t.writeBytesPerSec,
                    sweep.wordBits, t.execTime));
            } else {
                sweep.traffics.push_back(TrafficPattern::fromCounts(
                    t.name, t.reads, t.writes, t.execTime));
            }
        }
    });
    if (!message.empty())
        r.reject(message);
    if (sweep.traffics.empty() && sweep.workloads.empty())
        r.reject("needs \"traffic\" patterns or \"workloads\"");

    if (d.config.showReliability) {
        if (d.schemes.empty())
            d.schemes.push_back("none");
        if (d.scrubs.empty())
            d.scrubs.push_back(0.0);
        for (const auto &scheme : d.schemes) {
            for (double scrub : d.scrubs) {
                reliability::ReliabilitySpec spec;
                spec.ecc = scheme;
                spec.scrubIntervalSec = scrub;
                sweep.reliability.push_back(std::move(spec));
            }
        }
    }
}

/** The config document at the reader, whole. */
ExperimentConfig
readConfig(JsonReader &r)
{
    if (r.peek() != JsonValue::Kind::Object)
        r.reject("a config must be a JSON object");
    ConfigDoc d;
    d.config.sweep.targets = {OptTarget::ReadEDP};
    store::readFields(r, kConfigFields, d);
    finish(r, d);
    r.end();
    return std::move(d.config);
}

} // namespace

const std::set<std::string> &
knownConfigKeys()
{
    static const std::set<std::string> keys = [] {
        std::set<std::string> out;
        for (const auto &f : kConfigFields)
            if (!f.hidden)
                out.emplace(f.key);
        return out;
    }();
    return keys;
}

void
checkConfigMember(JsonReader &r, std::string_view key)
{
    ConfigDoc scratch;
    const auto &f = kConfigFields[store::fieldIndex(r, kConfigFields, key)];
    Member member(r, f.key);
    f.read(member, scratch);
}

ExperimentConfig
loadExperiment(const JsonValue &doc)
{
    JsonReader reader(doc.text());
    return readConfig(reader);
}

ExperimentConfig
loadExperimentFile(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        fatal("cannot open config file '", path, "'");
    JsonReader reader(text, path);
    return readConfig(reader);
}

Table
runExperiment(const ExperimentConfig &config)
{
    auto results = store::applyQuery(runSweep(config.sweep),
                                     config.query);

    // The table is driven by the dashboard schema (core/dashboard.hh):
    // metric-backed columns evaluate their registry metric at display
    // scale; identity columns print the strings naming the design
    // point. Reliability columns appear only with show_reliability.
    std::vector<const DashboardColumn *> active;
    std::vector<std::string> headers;
    for (const auto &column : dashboardColumns()) {
        if (column.reliability && !config.showReliability)
            continue;
        active.push_back(&column);
        headers.push_back(column.header);
    }
    Table table(config.name, headers);
    for (const auto &ev : results) {
        table.row();
        for (const DashboardColumn *column : active) {
            if (!column->metric.empty()) {
                const auto &m = metrics::MetricRegistry::instance()
                    .require(column->metric, "dashboard schema");
                table.add(m.eval(ev) * column->scale);
            } else if (column->header == "Cell") {
                table.add(ev.array->cell.name);
            } else if (column->header == "Traffic") {
                table.add(ev.traffic->name);
            } else if (column->header == "Viable") {
                table.add(ev.viable() ? "yes" : "no");
            } else if (column->header == "ECC") {
                table.add(ev.reliability.scheme);
            } else if (column->header == "Scrub[s]") {
                table.add(ev.reliability.scrubIntervalSec);
            } else {
                panic("dashboard schema: identity column '",
                      column->header, "' has no accessor");
            }
        }
    }
    if (!config.outputCsv.empty())
        table.writeCsv(config.outputCsv);
    return table;
}

} // namespace nvmexp
