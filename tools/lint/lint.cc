#include "lint.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "campaign/campaign.hh"
#include "core/config.hh"
#include "core/dashboard.hh"
#include "metrics/constraints.hh"
#include "metrics/metric.hh"
#include "metrics/refine.hh"
#include "reliability/reliability.hh"
#include "store/result_store.hh"
#include "store/serialize.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace lint {

namespace fs = std::filesystem;

void
LintReport::add(std::string file, std::string key, std::string message)
{
    diagnostics.push_back(
        {std::move(file), std::move(key), std::move(message)});
}

void
LintReport::merge(const LintReport &other)
{
    diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                       other.diagnostics.end());
    checked += other.checked;
}

void
LintReport::print(std::ostream &out) const
{
    for (const auto &d : diagnostics) {
        out << d.file << ": ";
        if (!d.key.empty())
            out << "[" << d.key << "] ";
        out << d.message << "\n";
    }
}

namespace {

/** Run `fn` with fatal() converted to FatalError; on failure, record
 *  a (file, key) diagnostic. @return whether `fn` succeeded. */
template <typename Fn>
bool
guarded(LintReport &report, const std::string &file,
        const std::string &key, Fn &&fn)
{
    ScopedFatalThrows guard;
    try {
        fn();
        return true;
    } catch (const FatalError &e) {
        report.add(file, key, e.what());
        return false;
    }
}

std::string
joined(const std::vector<std::string> &names)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < names.size(); ++i)
        out << (i ? " " : "") << names[i];
    return out.str();
}

/** ECC scheme names referenced by a config's "ecc"/"reliability"
 *  section, across all accepted shapes (lenient: malformed shapes
 *  yield nothing here and are reported by the full load instead). */
std::vector<std::string>
referencedEccSchemes(const JsonValue &block)
{
    std::vector<std::string> names;
    if (block.isString()) {
        names.push_back(block.asString());
    } else if (block.isObject() && block.has("ecc")) {
        const JsonValue &ecc = block.at("ecc");
        if (ecc.isString()) {
            names.push_back(ecc.asString());
        } else if (ecc.isArray()) {
            for (const auto &entry : ecc.asArray())
                if (entry.isString())
                    names.push_back(entry.asString());
        }
    }
    return names;
}

void
checkEccNames(LintReport &report, const std::string &path,
              const std::string &key, const JsonValue &block)
{
    for (const auto &name : referencedEccSchemes(block)) {
        if (reliability::findEccScheme(name))
            continue;
        std::vector<std::string> known;
        for (const auto &scheme : reliability::eccSchemes())
            known.push_back(scheme.name);
        report.add(path, key,
                   "ECC scheme '" + name + "' unknown (known schemes: " +
                       joined(known) + ")");
    }
}

/** Per-section checks with precise keys, so one bad config yields one
 *  diagnostic per problem instead of stopping at the first fatal. */
void
checkConfigSections(LintReport &report, const std::string &path,
                    const JsonValue &doc)
{
    for (const auto &key : doc.memberNames()) {
        if (!knownConfigKeys().count(key))
            report.add(path, key, unknownKeyMessage(key));
    }

    if (doc.has("constraints") && doc.at("constraints").isArray()) {
        const auto &clauses = doc.at("constraints").asArray();
        for (std::size_t i = 0; i < clauses.size(); ++i) {
            std::string key = "constraints[" + std::to_string(i) + "]";
            guarded(report, path, key, [&] {
                metrics::ConstraintClause::fromJson(clauses[i], key);
            });
        }
    } else if (doc.has("constraints")) {
        // Not a clause array, e.g. the removed fixed-field object; the
        // diagnostic gives the clause spelling to migrate to.
        guarded(report, path, "constraints", [&] {
            metrics::ConstraintSet::fromJson(doc.at("constraints"));
        });
    }

    if (doc.has("pareto")) {
        guarded(report, path, "pareto", [&] {
            metrics::paretoMetricsFromJson(doc.at("pareto"), "pareto");
        });
    }

    if (doc.has("top_k")) {
        guarded(report, path, "top_k", [&] {
            metrics::topSpecFromJson(doc.at("top_k"), "top_k");
        });
    }

    if (doc.has("workloads") && doc.at("workloads").isArray()) {
        const auto &specs = doc.at("workloads").asArray();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::string key = "workloads[" + std::to_string(i) + "]";
            guarded(report, path, key, [&] {
                workload::validateWorkloadJson(specs[i]);
            });
        }
    }
    if (doc.has("workload")) {
        guarded(report, path, "workload", [&] {
            workload::validateWorkloadJson(doc.at("workload"));
        });
    }

    if (doc.has("reliability"))
        checkEccNames(report, path, "reliability", doc.at("reliability"));
    if (doc.has("ecc"))
        checkEccNames(report, path, "ecc", doc.at("ecc"));
}

} // namespace

LintReport
lintConfigFile(const std::string &path)
{
    LintReport report;
    ++report.checked;

    JsonValue doc;
    if (!guarded(report, path, "", [&] { doc = JsonValue::parseFile(path); }))
        return report;
    if (!doc.isObject()) {
        report.add(path, "", "config root must be a JSON object");
        return report;
    }

    checkConfigSections(report, path, doc);

    // The full load validates everything the section checks do not
    // reach: cell references, traffic shapes, targets, reliability
    // cross products. Skipped when the section checks
    // already failed — the load would re-report the first of them.
    if (report.clean())
        guarded(report, path, "load", [&] { loadExperiment(doc); });
    return report;
}

LintReport
lintGoldenFile(const std::string &path)
{
    LintReport report;
    ++report.checked;

    // The record decoders name the member and value at fault: a stale
    // "format", a missing "results", a bad row.
    guarded(report, path, "", [&] {
        std::vector<EvalResult> rows;
        store::readJsonFile(path, rows);
    });
    return report;
}

namespace {

/** tools/bench_gate.py's normalization reference and its batched
 *  counterpart: the gate hard-fails when either is missing, so the
 *  lint catches a truncated or mis-filtered snapshot at commit time. */
const char *const kGateReference = "BM_SweepEvalScalar/1";
const char *const kGateBatched = "BM_SweepEvalBatched/1";

} // namespace

LintReport
lintBenchFile(const std::string &path)
{
    LintReport report;
    ++report.checked;

    JsonValue doc;
    if (!guarded(report, path, "",
                 [&] { doc = JsonValue::parseFile(path); }))
        return report;
    if (!doc.isObject()) {
        report.add(path, "", "benchmark snapshot must be a JSON object");
        return report;
    }

    // A snapshot records the machine it was measured on: timings
    // from different core counts are not comparable.
    if (!doc.has("context") || !doc.at("context").isObject()) {
        report.add(path, "context", "missing \"context\" object");
    } else {
        const JsonValue &context = doc.at("context");
        if (!context.has("num_cpus") ||
            !context.at("num_cpus").isNumber() ||
            context.at("num_cpus").asNumber() < 1) {
            report.add(path, "context.num_cpus",
                       "missing or non-positive CPU count (a snapshot "
                       "must record the machine it was measured on)");
        }
        // "library_build_type" describes libbenchmark, not nvmexp;
        // benchsupport::benchMain records nvmexp's own build.
        for (const char *flag : {"nvmexp_ndebug", "nvmexp_optimize"}) {
            if (!context.has(flag) || !context.at(flag).isString() ||
                context.at(flag).asString() != "true") {
                report.add(path, std::string("context.") + flag,
                           "missing or not \"true\" (a snapshot must "
                           "come from an optimized nvmexp build: "
                           "NDEBUG and __OPTIMIZE__ set)");
            }
        }
    }

    if (!doc.has("benchmarks") || !doc.at("benchmarks").isArray() ||
        doc.at("benchmarks").asArray().empty()) {
        report.add(path, "benchmarks",
                   "missing or empty \"benchmarks\" array");
        return report;
    }

    // The unit map bench_gate.py normalizes with; an unknown unit
    // scales by 1.0 there without any warning, corrupting every
    // committed-vs-fresh ratio built from the row.
    static const std::set<std::string> knownUnits = {"ns", "us", "ms",
                                                     "s"};
    std::set<std::string> iterationNames;
    double referenceTime = -1.0;
    const auto &rows = doc.at("benchmarks").asArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::string key = "benchmarks[" + std::to_string(i) + "]";
        const JsonValue &row = rows[i];
        if (!row.isObject()) {
            report.add(path, key, "row must be a JSON object");
            continue;
        }
        if (!row.has("name") || !row.at("name").isString() ||
            row.at("name").asString().empty()) {
            report.add(path, key, "row carries no benchmark name");
            continue;
        }
        const std::string name = row.at("name").asString();
        key += " (" + name + ")";

        bool iteration = true;
        if (row.has("run_type")) {
            if (!row.at("run_type").isString()) {
                report.add(path, key, "run_type must be a string");
                continue;
            }
            const std::string runType = row.at("run_type").asString();
            if (runType != "iteration" && runType != "aggregate") {
                report.add(path, key,
                           "unknown run_type '" + runType +
                               "' (bench_gate knows iteration and "
                               "aggregate)");
            }
            iteration = runType == "iteration";
        }
        if (row.has("time_unit")) {
            if (!row.at("time_unit").isString() ||
                !knownUnits.count(row.at("time_unit").asString())) {
                report.add(path, key,
                           "time_unit must be one of ns/us/ms/s "
                           "(bench_gate scales unknown units by 1.0 "
                           "without warning)");
            }
        }
        if (!iteration)
            continue;
        if (!iterationNames.insert(name).second) {
            report.add(path, key,
                       "duplicate iteration row (bench_gate keeps "
                       "only the last, masking the first)");
        }
        if (!row.has("real_time") || !row.at("real_time").isNumber() ||
            !std::isfinite(row.at("real_time").asNumber()) ||
            row.at("real_time").asNumber() < 0.0) {
            report.add(path, key,
                       "real_time must be a finite non-negative "
                       "number");
            continue;
        }
        if (name == kGateReference)
            referenceTime = row.at("real_time").asNumber();
    }

    if (!iterationNames.count(kGateReference)) {
        report.add(path, kGateReference,
                   "missing normalization reference iteration row");
    } else if (referenceTime == 0.0) {
        report.add(path, kGateReference,
                   "reference real_time must be positive (every "
                   "normalized ratio divides by it)");
    }
    if (!iterationNames.count(kGateBatched)) {
        report.add(path, kGateBatched,
                   "missing batched counterpart iteration row (the "
                   "gate's min-speedup check needs it)");
    }
    return report;
}

LintReport
lintStoreDir(const std::string &dir)
{
    LintReport report;
    ++report.checked;

    // The header is read strictly through the store's header record,
    // so a bad one is named by its member.
    std::string checkpoint = dir + "/checkpoint.jsonl";
    if (fs::exists(checkpoint)) {
        std::ifstream in(checkpoint);
        std::string line;
        store::CheckpointHeader header;
        if (!in || !std::getline(in, line)) {
            report.add(checkpoint, "", "unreadable or empty journal");
        } else if (guarded(report, checkpoint, "header", [&] {
                       store::readJson(line, checkpoint, header);
                   })) {
            if (header.format != store::kFormatVersion) {
                report.add(checkpoint, "format",
                           "format version " +
                               std::to_string(header.format) +
                               " is stale (current: " +
                               std::to_string(store::kFormatVersion) +
                               "); regenerate the artifact");
            }
            if (header.fingerprint.empty()) {
                report.add(checkpoint, "fingerprint",
                           "header carries no sweep fingerprint");
            }
        }
    }

    std::string stats = dir + "/stats.json";
    if (fs::exists(stats)) {
        guarded(report, stats, "", [&] { store::loadStats(dir); });
    }

    // Through the loader `query` and `serve` use: a results.json they
    // refuse does not lint clean.
    std::string results = dir + "/results.json";
    if (fs::exists(results)) {
        guarded(report, results, "", [&] { store::loadResults(dir); });
    }

    // A persisted query must deserialize under the full StoreQuery
    // vocabulary (unknown keys, unknown metrics, and malformed
    // clauses are all fatal there).
    std::string query = dir + "/query.json";
    if (fs::exists(query)) {
        guarded(report, query, "", [&] {
            store::StoreQuery::fromJson(JsonValue::parseFile(query));
        });
    }
    return report;
}

LintReport
lintCampaignDir(const std::string &dir)
{
    LintReport report;
    ++report.checked;

    std::string manifestPath = dir + "/campaign.json";
    campaign::CampaignManifest manifest;
    // The manifest's decoder carries the format, fingerprint and count
    // checks; the guard turns each fatal into a diagnostic.
    if (!guarded(report, manifestPath, "",
                 [&] { manifest = campaign::loadManifest(dir); }))
        return report;

    // Each shard that has run (a pending one has no directory) and the
    // merged store hold a journal of the campaign's sweep.
    std::vector<std::string> stores;
    for (std::size_t shard = 0; shard < manifest.shardCount; ++shard)
        stores.push_back(dir + "/" + campaign::shardDirName(shard));
    stores.push_back(dir + "/merged");
    for (const auto &storeDir : stores) {
        if (!fs::is_directory(storeDir))
            continue;
        report.merge(lintStoreDir(storeDir));
        // A header that is not ok, or has no fingerprint, is reported
        // by lintStoreDir.
        store::CheckpointHeader header = store::readCheckpointHeader(storeDir);
        if (header.headerOk && !header.fingerprint.empty() &&
            header.fingerprint != manifest.fingerprint) {
            report.add(storeDir + "/checkpoint.jsonl", "fingerprint",
                       "journal fingerprint " + header.fingerprint +
                           " does not match the campaign fingerprint " +
                           manifest.fingerprint);
        }
    }

    // The config snapshot, as `campaign run`, `merge` and `status`
    // check it: once it lints clean, it must fingerprint to the plan.
    std::string config = dir + "/config.json";
    if (fs::exists(config)) {
        LintReport snapshot = lintConfigFile(config);
        if (snapshot.clean()) {
            guarded(snapshot, config, "fingerprint", [&] {
                campaign::loadPlannedConfig(dir, manifest);
            });
        }
        report.merge(snapshot);
    }
    return report;
}

LintReport
lintRegistries()
{
    LintReport report;
    const std::string reg = "<metric-registry>";
    ++report.checked;

    const auto &registry = metrics::MetricRegistry::instance();
    for (const auto &name : registry.names()) {
        const metrics::Metric *m = registry.find(name);
        if (!m) {
            report.add(reg, name, "names() entry does not resolve");
            continue;
        }
        if (m->unit.empty())
            report.add(reg, name, "metric has no unit string");
        if (m->description.empty())
            report.add(reg, name, "metric has no description");
        if (!m->eval)
            report.add(reg, name, "metric has no eval accessor");
    }

    // results.csv schema: every column is either one of the identity
    // columns documented in store/result_store.hh or backed by a
    // registered metric; headers are unique and non-empty.
    {
        const std::string csv = "<results.csv-schema>";
        ++report.checked;
        static const std::set<std::string> identity = {
            "cell",     "tech",       "traffic",
            "capacity_bytes", "word_bits", "node_nm",
            "ecc_scheme", "scrub_interval_sec",
        };
        std::set<std::string> seen;
        for (const auto &column : store::resultCsvColumns()) {
            if (column.header.empty()) {
                report.add(csv, "", "column with empty header");
                continue;
            }
            if (!seen.insert(column.header).second)
                report.add(csv, column.header, "duplicate column header");
            if (column.metric.empty()) {
                if (!identity.count(column.header))
                    report.add(csv, column.header,
                               "identity column not in the documented "
                               "identity set");
            } else if (!registry.find(column.metric)) {
                report.add(csv, column.header,
                           "backing metric '" + column.metric +
                               "' is not registered");
            }
        }
    }

    // Dashboard schema: same invariants for runExperiment's table.
    {
        const std::string dash = "<dashboard-schema>";
        ++report.checked;
        static const std::set<std::string> identity = {
            "Cell", "Traffic", "Viable", "ECC", "Scrub[s]",
        };
        std::set<std::string> seen;
        for (const auto &column : dashboardColumns()) {
            if (column.header.empty()) {
                report.add(dash, "", "column with empty header");
                continue;
            }
            if (!seen.insert(column.header).second)
                report.add(dash, column.header,
                           "duplicate column header");
            if (column.metric.empty()) {
                if (!identity.count(column.header))
                    report.add(dash, column.header,
                               "identity column not in the documented "
                               "identity set");
            } else if (!registry.find(column.metric)) {
                report.add(dash, column.header,
                           "backing metric '" + column.metric +
                               "' is not registered");
            }
            if (column.scale <= 0.0)
                report.add(dash, column.header,
                           "non-positive display scale");
        }
    }

    // Workload registry: sorted unique non-empty names.
    {
        const std::string wl = "<workload-registry>";
        ++report.checked;
        auto names = workload::WorkloadRegistry::instance().names();
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i].empty())
                report.add(wl, "", "workload with empty name");
            if (i && names[i] == names[i - 1])
                report.add(wl, names[i], "duplicate workload name");
        }
    }

    // ECC scheme table: unique names, sane codeword geometry, and a
    // findEccScheme() that resolves each entry to itself.
    {
        const std::string ecc = "<ecc-schemes>";
        ++report.checked;
        std::set<std::string> seen;
        for (const auto &scheme : reliability::eccSchemes()) {
            if (scheme.name.empty()) {
                report.add(ecc, "", "scheme with empty name");
                continue;
            }
            if (!seen.insert(scheme.name).second)
                report.add(ecc, scheme.name, "duplicate scheme name");
            if (scheme.dataBits <= 0 ||
                scheme.codeBits < scheme.dataBits)
                report.add(ecc, scheme.name,
                           "codeword geometry invalid (data " +
                               std::to_string(scheme.dataBits) +
                               ", code " +
                               std::to_string(scheme.codeBits) + ")");
            if (scheme.correctable < 0)
                report.add(ecc, scheme.name,
                           "negative correctable-error count");
            if (reliability::findEccScheme(scheme.name) != &scheme)
                report.add(ecc, scheme.name,
                           "findEccScheme does not resolve to this "
                           "entry");
        }
    }
    return report;
}

LintReport
lintTree(const std::string &root)
{
    LintReport report = lintRegistries();

    auto jsonFilesIn = [](const std::string &dir) {
        std::vector<std::string> files;
        if (fs::is_directory(dir))
            for (const auto &entry : fs::directory_iterator(dir))
                if (entry.is_regular_file() &&
                    entry.path().extension() == ".json")
                    files.push_back(entry.path().string());
        std::sort(files.begin(), files.end());
        return files;
    };

    for (const auto &path : jsonFilesIn(root + "/config"))
        report.merge(lintConfigFile(path));
    for (const auto &path : jsonFilesIn(root + "/tests/data"))
        report.merge(lintGoldenFile(path));

    // Committed benchmark snapshots at the repo root (BENCH_*.json):
    // the perf gate normalizes every CI comparison against them, so a
    // malformed snapshot quietly poisons the gate.
    {
        std::vector<std::string> benches;
        if (fs::is_directory(root)) {
            for (const auto &entry : fs::directory_iterator(root)) {
                const std::string name =
                    entry.path().filename().string();
                // Freshly measured files (BENCH_*.fresh.json) are
                // CI-transient, not committed snapshots; skip them so
                // a workspace with gate leftovers still lints clean.
                if (entry.is_regular_file() &&
                    name.rfind("BENCH_", 0) == 0 &&
                    name.find(".fresh.") == std::string::npos &&
                    entry.path().extension() == ".json")
                    benches.push_back(entry.path().string());
            }
        }
        std::sort(benches.begin(), benches.end());
        for (const auto &path : benches)
            report.merge(lintBenchFile(path));
    }

    // Store and campaign directories under tests/data (fixtures for
    // the resume, query, and campaign tiers, when present). A
    // campaign dir owns its nested shard/merged stores, so it is
    // never also linted as a plain store.
    std::string data = root + "/tests/data";
    if (fs::is_directory(data)) {
        std::vector<std::string> stores;
        std::vector<std::string> campaigns;
        for (const auto &entry : fs::directory_iterator(data)) {
            if (!entry.is_directory())
                continue;
            if (fs::exists(entry.path() / "campaign.json"))
                campaigns.push_back(entry.path().string());
            else if (fs::exists(entry.path() / "checkpoint.jsonl") ||
                     fs::exists(entry.path() / "stats.json"))
                stores.push_back(entry.path().string());
        }
        std::sort(stores.begin(), stores.end());
        for (const auto &dir : stores)
            report.merge(lintStoreDir(dir));
        std::sort(campaigns.begin(), campaigns.end());
        for (const auto &dir : campaigns)
            report.merge(lintCampaignDir(dir));
    }
    return report;
}

} // namespace lint
} // namespace nvmexp
