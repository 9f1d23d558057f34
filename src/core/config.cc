#include "core/config.hh"

#include <cmath>

#include "celldb/tentpole.hh"
#include "core/dashboard.hh"
#include "metrics/metric.hh"
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

MemCell
customCellFromJson(const JsonValue &spec)
{
    CellCatalog catalog;
    MemCell cell;
    if (spec.has("base")) {
        cell = resolveCellReference(spec.at("base").asString());
    } else {
        cell = catalog.optimistic(
            techFromName(spec.at("tech").asString()));
    }
    cell.flavor = CellFlavor::Custom;
    cell.name = spec.stringOr("name", cell.name + "-custom");
    cell.areaF2 = spec.numberOr("area_f2", cell.areaF2);
    if (spec.has("write_pulse_ns")) {
        double pulse = spec.at("write_pulse_ns").asNumber() * 1e-9;
        cell.setPulse = pulse;
        cell.resetPulse = pulse;
    }
    if (spec.has("write_current_ua")) {
        double current = spec.at("write_current_ua").asNumber() * 1e-6;
        cell.setCurrent = current;
        cell.resetCurrent = current;
    }
    cell.writeVoltage = spec.numberOr("write_voltage", cell.writeVoltage);
    cell.readVoltage = spec.numberOr("read_voltage", cell.readVoltage);
    cell.endurance = spec.numberOr("endurance", cell.endurance);
    cell.retention = spec.numberOr("retention_sec", cell.retention);
    cell.validate();
    return cell;
}

/** A run setting that a config once carried and the flag that now
 *  does: a config still naming one is refused, not run on other
 *  settings than it asks for. */
struct RunSettingKey
{
    const char *key;
    const char *flag;
};

constexpr RunSettingKey kRunSettingKeys[] = {
    {"jobs", "--jobs"},
    {"out_dir", "--out"},
    {"resume", "--resume"},
    {"campaign", "`campaign plan --shards N`"},
};

/**
 * The integer value of an optional key: `fallback` when `doc` lacks
 * it, else a whole number in [lo, hi] or a fatal naming the config
 * (`context`), key, and value (wholeNumberKey).
 */
int
integerKey(const JsonValue &doc, const std::string &key, int fallback,
           int lo, int hi, const std::string &context)
{
    if (!doc.has(key))
        return fallback;
    return (int)wholeNumberKey(doc, key, lo, hi, context);
}

OptTarget
targetFromName(const std::string &name)
{
    for (OptTarget target : allOptTargets())
        if (optTargetName(target) == name)
            return target;
    fatal("unknown optimization target '", name, "'");
}

TrafficPattern
trafficFromJson(const JsonValue &spec, int wordBits)
{
    std::string name = spec.stringOr("name", "traffic");
    if (spec.has("read_bytes_per_sec") ||
        spec.has("write_bytes_per_sec")) {
        return TrafficPattern::fromByteRates(
            name, spec.numberOr("read_bytes_per_sec", 0.0),
            spec.numberOr("write_bytes_per_sec", 0.0), wordBits,
            spec.numberOr("exec_time", 1.0));
    }
    if (spec.has("reads") || spec.has("writes")) {
        return TrafficPattern::fromCounts(
            name, spec.numberOr("reads", 0.0),
            spec.numberOr("writes", 0.0),
            spec.numberOr("exec_time", 1.0));
    }
    fatal("traffic entry '", name,
          "' needs byte rates or access counts");
}

/**
 * Parse the "reliability"/"ecc" block into the sweep's reliability
 * axis. Accepted forms:
 *
 *   "ecc": "secded-72-64"                       one scheme, no scrub
 *   "reliability": {"ecc": "none", ...}         one spec
 *   "reliability": {"ecc": ["none", "secded-72-64"],
 *                   "scrub_interval_sec": [0, 86400]}
 *
 * Array-valued keys sweep like cells/capacities: the axis is the
 * cross product of schemes x scrub intervals, scheme-major. Scheme
 * names and scrub intervals are validated here, so a typo fails
 * before any simulation runs.
 */
std::vector<reliability::ReliabilitySpec>
reliabilityFromJson(const JsonValue &block, const std::string &context)
{
    std::vector<std::string> schemes;
    std::vector<double> scrubs;

    if (block.isString()) {
        schemes.push_back(block.asString());
    } else if (block.isObject()) {
        for (const auto &key : block.memberNames()) {
            if (key != "ecc" && key != "scrub_interval_sec") {
                fatal(context, ": reliability block has unknown key '",
                      key, "' (expected \"ecc\" and/or "
                      "\"scrub_interval_sec\")");
            }
        }
        if (block.has("ecc")) {
            const JsonValue &ecc = block.at("ecc");
            if (ecc.isArray()) {
                for (const auto &entry : ecc.asArray())
                    schemes.push_back(entry.asString());
                if (schemes.empty())
                    fatal(context, ": reliability \"ecc\" list is "
                          "empty");
            } else {
                schemes.push_back(ecc.asString());
            }
        }
        if (block.has("scrub_interval_sec")) {
            const JsonValue &scrub = block.at("scrub_interval_sec");
            if (scrub.isArray()) {
                for (const auto &entry : scrub.asArray())
                    scrubs.push_back(entry.asNumber());
                if (scrubs.empty())
                    fatal(context, ": reliability "
                          "\"scrub_interval_sec\" list is empty");
            } else {
                scrubs.push_back(scrub.asNumber());
            }
        }
    } else {
        fatal(context, ": \"reliability\"/\"ecc\" must be a scheme "
              "name or an object with \"ecc\"/\"scrub_interval_sec\"");
    }

    if (schemes.empty())
        schemes.push_back("none");
    if (scrubs.empty())
        scrubs.push_back(0.0);

    std::vector<reliability::ReliabilitySpec> specs;
    specs.reserve(schemes.size() * scrubs.size());
    for (const auto &scheme : schemes) {
        for (double scrub : scrubs) {
            reliability::ReliabilitySpec spec;
            spec.ecc = scheme;
            spec.scrubIntervalSec = scrub;
            // Constructing the evaluator validates scheme + interval.
            reliability::ReliabilityEvaluator(spec, context);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

} // namespace

const std::set<std::string> &
knownConfigKeys()
{
    static const std::set<std::string> keys = {
        "experiment",  "cells",       "capacities_mib",
        "word_bits",   "node_nm",     "sram_node_nm",
        "targets",     "traffic",     "workloads",
        "workload",    "reliability", "ecc",
        "constraints", "pareto",      "top_k",
        "output_csv",
    };
    return keys;
}

std::string
unknownKeyMessage(const std::string &key)
{
    for (const RunSettingKey &setting : kRunSettingKeys) {
        if (key == setting.key) {
            return "key '" + key + "' is a run setting, not part of " +
                "the design space; pass " + setting.flag +
                " on the command line instead";
        }
    }
    std::string known;
    for (const auto &name : knownConfigKeys())
        known += " " + name;
    return "unknown key '" + key + "' (known keys:" + known + ")";
}

ExperimentConfig
loadExperiment(const JsonValue &doc)
{
    ExperimentConfig config;
    config.name = doc.stringOr("experiment", "experiment");
    const std::string context = "config '" + config.name + "'";

    for (const auto &key : doc.memberNames()) {
        if (!knownConfigKeys().count(key))
            fatal(context, ": ", unknownKeyMessage(key));
    }

    // Cells: names, "study-set", or inline custom definitions.
    CellCatalog catalog;
    for (const auto &entry : doc.at("cells").asArray()) {
        if (entry.isString()) {
            if (entry.asString() == "study-set") {
                auto all = catalog.studyCells();
                config.sweep.cells.insert(config.sweep.cells.end(),
                                          all.begin(), all.end());
            } else {
                config.sweep.cells.push_back(
                    resolveCellReference(entry.asString()));
            }
        } else {
            config.sweep.cells.push_back(customCellFromJson(entry));
        }
    }
    if (config.sweep.cells.empty())
        fatal(context, ": no cells");

    // Capacities, word width, nodes.
    config.sweep.capacitiesBytes.clear();
    for (const auto &mib : doc.at("capacities_mib").asArray()) {
        double bytes = mib.asNumber() * 1024.0 * 1024.0;
        if (!std::isfinite(bytes) ||
            bytes < ArrayConfig::kMinCapacityBytes) {
            fatal(context, ": \"capacities_mib\" entries must be finite "
                  "and at least 1 KiB (0.0009765625), got ",
                  mib.dump(-1));
        }
        config.sweep.capacitiesBytes.push_back(bytes);
    }
    // Word width within ArrayDesigner's range; nodes within
    // techNodeFor's table.
    config.sweep.wordBits =
        integerKey(doc, "word_bits", 512, 8, 4096, context);
    config.sweep.nodeNm = integerKey(doc, "node_nm", 22, 7, 130, context);
    config.sweep.sramNodeNm =
        integerKey(doc, "sram_node_nm", 16, 7, 130, context);

    // Optimization targets (default ReadEDP).
    config.sweep.targets.clear();
    if (doc.has("targets")) {
        for (const auto &t : doc.at("targets").asArray())
            config.sweep.targets.push_back(
                targetFromName(t.asString()));
    } else {
        config.sweep.targets.push_back(OptTarget::ReadEDP);
    }

    // Traffic: explicit patterns and/or a generic grid. Optional when
    // the config names registry workloads instead.
    if (doc.has("traffic")) {
        for (const auto &spec : doc.at("traffic").asArray()) {
            if (spec.isObject() && spec.stringOr("kind", "") ==
                    "generic_grid") {
                // steps^2 patterns: the largest shipped grid uses 3.
                auto grid = genericTrafficGrid(
                    spec.at("read_lo").asNumber(),
                    spec.at("read_hi").asNumber(),
                    spec.at("write_lo").asNumber(),
                    spec.at("write_hi").asNumber(),
                    integerKey(spec, "steps", 3, 2, 1000, context),
                    config.sweep.wordBits);
                config.sweep.traffics.insert(
                    config.sweep.traffics.end(), grid.begin(),
                    grid.end());
            } else {
                config.sweep.traffics.push_back(
                    trafficFromJson(spec, config.sweep.wordBits));
            }
        }
    }

    // Workloads: registry-dispatched traffic sources. Specs are
    // validated here (unknown names and bad parameters fail before
    // any simulation) but expanded by the sweep engine.
    if (doc.has("workloads")) {
        for (const auto &spec : doc.at("workloads").asArray()) {
            workload::validateWorkloadJson(spec);
            config.sweep.workloads.push_back(spec);
        }
    }
    if (doc.has("workload")) {
        const JsonValue &spec = doc.at("workload");
        workload::validateWorkloadJson(spec);
        config.sweep.workloads.push_back(spec);
    }
    if (config.sweep.traffics.empty() && config.sweep.workloads.empty())
        fatal(context, ": needs \"traffic\" patterns or \"workloads\"");

    // Reliability axis: a "reliability" object or an "ecc" shorthand
    // (one scheme name, or the same object shape). Either promotes
    // reliability columns into the dashboard table.
    if (doc.has("reliability") && doc.has("ecc")) {
        fatal(context, ": give either \"reliability\" or the \"ecc\" "
              "shorthand, not both");
    }
    if (doc.has("reliability") || doc.has("ecc")) {
        config.sweep.reliability = reliabilityFromJson(
            doc.at(doc.has("reliability") ? "reliability" : "ecc"),
            context);
        config.showReliability = true;
    }

    // Refine pipeline: the "constraints" clause array, "pareto", and
    // "top_k", read exactly as a store's query.json reads them. Metric
    // names validate here, so a bad filter fails before any
    // simulation runs.
    config.query = store::StoreQuery::fromRefineKeys(doc, context);

    config.outputCsv = doc.stringOr("output_csv", "");
    return config;
}

ExperimentConfig
loadExperimentFile(const std::string &path)
{
    // The parser names the file and the line and column. Past it, a
    // rejection names the experiment or only a member ("JSON: expected
    // a string"), so it is raised again naming the file.
    JsonValue doc = JsonValue::parseFile(path);
    try {
        ScopedFatalThrows guard;
        return loadExperiment(doc);
    } catch (const FatalError &error) {
        fatal("'", path, "': ", error.what());
    }
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
                table.add(ev.array.cell.name);
            } else if (column->header == "Traffic") {
                table.add(ev.traffic.name);
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
