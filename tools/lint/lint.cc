#include "lint.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <set>

#include "campaign/campaign.hh"
#include "core/config.hh"
#include "core/dashboard.hh"
#include "metrics/metric.hh"
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
    std::string message = fatalMessage(fn);
    if (!message.empty())
        report.add(file, key, message);
    return message.empty();
}

} // namespace

LintReport
lintConfigFile(const std::string &path)
{
    LintReport report;
    ++report.checked;

    // Each top-level member on its own, through its field in the
    // config table, so one bad member does not hide the next; a bookmark
    // decodes it while the reader skips past it.
    std::string text;
    bool whole = guarded(report, path, "", [&] {
        if (!readFile(path, text))
            fatal("cannot open config file '", path, "'");
        JsonReader reader(text, path);
        if (reader.peek() != JsonValue::Kind::Object)
            reader.reject("a config must be a JSON object");
        reader.beginObject();
        std::string_view name;
        while (reader.nextMember(name)) {
            std::string key(name);
            JsonReader member = reader;
            reader.skip();
            guarded(report, path, key,
                    [&] { checkConfigMember(member, key); });
        }
        reader.end();
    });

    // The full load checks what depends on more than one member (traffic
    // patterns at the word width, "reliability" beside "ecc", traffic or
    // workloads at all). Skipped when a member already failed — the load
    // would re-report the first of them.
    if (whole && report.clean())
        guarded(report, path, "load", [&] { loadExperimentFile(path); });
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

namespace {

/** One member of a benchmark snapshot object, as the checks below need
 *  it: its kind, and its value when it is a string or a number. */
struct SnapshotValue
{
    JsonValue::Kind kind = JsonValue::Kind::Null;
    std::string text;
    double number = 0.0;
};

using SnapshotObject = std::map<std::string, SnapshotValue, std::less<>>;

/** The object at the reader, its containers skipped. */
SnapshotObject
readSnapshotObject(JsonReader &r)
{
    SnapshotObject out;
    std::string_view name;
    r.beginObject();
    while (r.nextMember(name)) {
        SnapshotValue &value = out[std::string(name)];
        value.kind = r.peek();
        if (value.kind == JsonValue::Kind::String)
            value.text.assign(r.string());
        else if (value.kind == JsonValue::Kind::Number)
            value.number = r.number();
        else
            r.skip();
    }
    return out;
}

/** The member `key` of `object` when it is of `kind`. */
const SnapshotValue *
member(const SnapshotObject &object, std::string_view key,
       JsonValue::Kind kind)
{
    auto it = object.find(key);
    return it != object.end() && it->second.kind == kind ? &it->second
                                                         : nullptr;
}

} // namespace

LintReport
lintBenchFile(const std::string &path)
{
    LintReport report;
    ++report.checked;

    // The snapshot is google-benchmark's format, so it has no field
    // table: a walk collects the members checked below, skipping the
    // rest. A row that is not an object stays empty.
    std::optional<SnapshotObject> context;
    std::optional<std::vector<std::optional<SnapshotObject>>> rows;
    std::string text;
    if (!guarded(report, path, "", [&] {
            if (!readFile(path, text))
                fatal("cannot open benchmark snapshot '", path, "'");
            JsonReader r(text, path);
            if (r.peek() != JsonValue::Kind::Object)
                r.reject("benchmark snapshot must be a JSON object");
            std::string_view name;
            r.beginObject();
            while (r.nextMember(name)) {
                JsonValue::Kind kind = r.peek();
                if (name == "context" && kind == JsonValue::Kind::Object) {
                    context = readSnapshotObject(r);
                } else if (name == "benchmarks" &&
                           kind == JsonValue::Kind::Array) {
                    rows.emplace();
                    r.beginArray();
                    while (r.nextElement()) {
                        if (r.peek() == JsonValue::Kind::Object) {
                            rows->push_back(readSnapshotObject(r));
                        } else {
                            rows->emplace_back();
                            r.skip();
                        }
                    }
                } else {
                    r.skip();
                }
            }
            r.end();
        }))
        return report;

    // A snapshot records the machine it was measured on: timings
    // from different core counts are not comparable.
    if (!context) {
        report.add(path, "context", "missing \"context\" object");
    } else {
        const SnapshotValue *cpus =
            member(*context, "num_cpus", JsonValue::Kind::Number);
        if (!cpus || cpus->number < 1) {
            report.add(path, "context.num_cpus",
                       "missing or non-positive CPU count (a snapshot "
                       "must record the machine it was measured on)");
        }
        // "library_build_type" describes libbenchmark, not nvmexp;
        // benchsupport::benchMain records nvmexp's own build.
        for (const char *flag : {"nvmexp_ndebug", "nvmexp_optimize"}) {
            const SnapshotValue *value =
                member(*context, flag, JsonValue::Kind::String);
            if (!value || value->text != "true") {
                report.add(path, std::string("context.") + flag,
                           "missing or not \"true\" (a snapshot must "
                           "come from an optimized nvmexp build: "
                           "NDEBUG and __OPTIMIZE__ set)");
            }
        }
    }

    if (!rows || rows->empty()) {
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
    for (std::size_t i = 0; i < rows->size(); ++i) {
        std::string key = "benchmarks[" + std::to_string(i) + "]";
        if (!(*rows)[i]) {
            report.add(path, key, "row must be a JSON object");
            continue;
        }
        const SnapshotObject &row = *(*rows)[i];
        const SnapshotValue *nameValue =
            member(row, "name", JsonValue::Kind::String);
        if (!nameValue || nameValue->text.empty()) {
            report.add(path, key, "row carries no benchmark name");
            continue;
        }
        const std::string name = nameValue->text;
        key += " (" + name + ")";

        bool iteration = true;
        if (row.count("run_type")) {
            const SnapshotValue *runType =
                member(row, "run_type", JsonValue::Kind::String);
            if (!runType) {
                report.add(path, key, "run_type must be a string");
                continue;
            }
            if (runType->text != "iteration" &&
                runType->text != "aggregate") {
                report.add(path, key,
                           "unknown run_type '" + runType->text +
                               "' (bench_gate knows iteration and "
                               "aggregate)");
            }
            iteration = runType->text == "iteration";
        }
        if (row.count("time_unit")) {
            const SnapshotValue *unit =
                member(row, "time_unit", JsonValue::Kind::String);
            if (!unit || !knownUnits.count(unit->text)) {
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
        const SnapshotValue *realTime =
            member(row, "real_time", JsonValue::Kind::Number);
        if (!realTime || !std::isfinite(realTime->number) ||
            realTime->number < 0.0) {
            report.add(path, key,
                       "real_time must be a finite non-negative "
                       "number");
            continue;
        }
        if (name == kGateReference)
            referenceTime = realTime->number;
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

    // A persisted query must decode through the query's field table,
    // as `query --query` reads it (unknown members at any depth,
    // unknown metrics and malformed clauses are all refused there).
    std::string query = dir + "/query.json";
    if (fs::exists(query)) {
        guarded(report, query, "", [&] {
            store::StoreQuery decoded;
            store::readJsonFile(query, decoded);
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
