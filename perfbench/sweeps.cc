/**
 * @file
 * The three sweep-shaped workloads:
 *
 *   sweep-store  ParallelSweepRunner::run into a fresh store directory
 *                (the CLI --out path: journal + artifacts dominate)
 *   sweep-model  run() with no store over a large sweep whose traffics
 *                come from workload plugins (traffic generation,
 *                characterization and batched evaluation only)
 *   campaign     planCampaign, four runShard calls in this process and
 *                mergeCampaign (shard journals written, then scanned,
 *                validated and stitched)
 */

#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "campaign/campaign.hh"
#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "fixtures.hh"
#include "metrics/metric.hh"
#include "store/result_store.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace perfbench {

namespace fs = std::filesystem;
using namespace nvmexp;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kCampaignShards = 4;

std::vector<reliability::ReliabilitySpec>
reliabilitySpecs(bool smoke)
{
    std::vector<const char *> eccs = {"none", "secded-72-64",
                                      "dec-78-64", "tec-85-64"};
    std::vector<double> scrubs = {0.0, 600.0, 3600.0, 86400.0};
    if (smoke) {
        eccs.resize(2);
        scrubs.resize(1);
    }
    std::vector<reliability::ReliabilitySpec> specs;
    for (const char *ecc : eccs) {
        for (double scrub : scrubs) {
            reliability::ReliabilitySpec spec;
            spec.ecc = ecc;
            spec.scrubIntervalSec = scrub;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** A seeded factor in [0.5, 1.5) rendered for a JSON workload spec. */
std::string
rate(Rng &rng, double base)
{
    return JsonValue::formatNumber(base * (0.5 + rng.uniform()));
}

/**
 * Time `op` back to back for options.seconds (at least three times),
 * with untimed `prepare` before and `verify` after each iteration, and
 * report the iteration-based end-to-end metrics. A sweep workload's
 * "request" is one whole iteration: what a CLI user waits for.
 */
void
measureIterations(const Options &options, Report &report, double slots,
                  const std::function<void()> &prepare,
                  const std::function<void()> &op,
                  const std::function<void()> &verify)
{
    std::vector<double> ms;
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    while (ms.size() < 3 || Clock::now() < deadline) {
        prepare();
        auto begin = Clock::now();
        op();
        ms.push_back(msSince(begin));
        verify();
    }
    double p50 = median(ms);
    std::cout << "timed " << ms.size() << " iterations of " << slots
              << " slots\n";
    report.metric("slots_per_s", slots * 1000.0 / p50, "slots/s");
    report.metric("query_rps", 1000.0 / p50, "req/s");
    report.metric("query_ms_p50", p50, "ms");
    report.metric("query_ms_p98", percentile(ms, 0.98), "ms");
}

/**
 * Bit patterns of every registry metric over every row, folded into
 * one FNV-1a style hash per metric (plus the row count): two result
 * vectors with equal hashes have bit-equal metric columns.
 */
std::vector<std::uint64_t>
metricColumnHashes(const std::vector<EvalResult> &rows)
{
    const auto &registry = metrics::MetricRegistry::instance();
    std::vector<std::uint64_t> hashes;
    for (const auto &name : registry.names()) {
        const metrics::Metric &metric = registry.require(name);
        std::uint64_t hash = 14695981039346656037ull;
        for (const auto &row : rows) {
            double value = metric.eval(row);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &value, sizeof bits);
            hash = (hash ^ bits) * 1099511628211ull;
        }
        hashes.push_back(hash);
    }
    hashes.push_back(rows.size());
    return hashes;
}

/**
 * The store-backed run() decomposed into its layer calls, each in its
 * own span, against a fresh store directory `dir`. Checks that the
 * replayed artifacts equal `referenceJson`. The calls that together
 * make up run() are workload.expand, store.cache_cold, eval.evaluate,
 * store.journal and store.write_results; nvsim.characterize (the
 * enumeration without the cache), store.cache_warm and store.serialize
 * isolate parts of those.
 */
void
replayStoreLayers(Tracer &tracer, Report &report,
                  const SweepConfig &config,
                  const ParallelSweepRunner &runner, const std::string &dir,
                  const std::string &referenceJson)
{
    fs::remove_all(dir);
    SweepConfig expandedStorage;
    const SweepConfig &expanded =
        tracer.span("workload.expand", [&]() -> const SweepConfig & {
            return expandSweepWorkloads(config, expandedStorage);
        });
    tracer.sample("workload.traffics",
                  (double)(expanded.traffics.size() -
                           config.traffics.size()));

    SweepConfig plain = expanded;
    plain.outDir.clear();
    auto arrays = tracer.span("nvsim.characterize",
                              [&] { return runner.characterize(plain); });
    tracer.sample("nvsim.arrays", (double)arrays.size());

    SweepConfig stored = expanded;
    stored.outDir = dir;
    stored.cacheDir.clear();
    tracer.span("store.cache_cold",
                [&] { return runner.characterize(stored); });
    tracer.sample("store.cache_misses",
                  (double)runner.lastStoreStats().cacheMisses);
    tracer.span("store.cache_warm",
                [&] { return runner.characterize(stored); });
    tracer.sample("store.cache_hits",
                  (double)runner.lastStoreStats().cacheHits);

    auto results = tracer.span("eval.evaluate", [&] {
        return runner.evaluateAll(arrays, expanded.traffics,
                                  expanded.reliability);
    });
    tracer.sample("eval.slots", (double)results.size());

    store::ResultStore resultStore(dir);
    tracer.span("store.journal", [&] {
        resultStore.openCheckpoint(store::sweepFingerprint(expanded),
                                   results.size(), false);
        for (std::size_t slot = 0; slot < results.size(); ++slot)
            resultStore.checkpointSlot(slot, results[slot]);
        resultStore.closeCheckpoint();
    });
    tracer.sample("store.journal_bytes",
                  (double)fs::file_size(dir + "/checkpoint.jsonl"));

    std::string json = tracer.span(
        "store.serialize", [&] { return store::serializeResults(results); });
    tracer.sample("store.results_bytes", (double)json.size());
    tracer.span("store.write_results",
                [&] { resultStore.writeResults(results); });

    report.check(json == referenceJson &&
                 readFile(dir + "/results.json") == referenceJson);
}

/** The metrics replayStoreLayers samples, under their printed names. */
void
storeLayerMetrics(const Tracer &tracer, Report &report)
{
    report.metric("workload.expand_ms", tracer.median("workload.expand"),
                  "ms");
    report.metric("workload.traffics", tracer.median("workload.traffics"),
                  "count");
    report.metric("nvsim.characterize_ms",
                  tracer.median("nvsim.characterize"), "ms");
    report.metric("nvsim.arrays", tracer.median("nvsim.arrays"), "count");
    report.metric("eval.evaluate_ms", tracer.median("eval.evaluate"),
                  "ms");
    report.metric("eval.slots", tracer.median("eval.slots"), "count");
    report.metric("store.cache_cold_ms", tracer.median("store.cache_cold"),
                  "ms");
    report.metric("store.cache_warm_ms", tracer.median("store.cache_warm"),
                  "ms");
    report.metric("store.cache_hits", tracer.median("store.cache_hits"),
                  "count");
    report.metric("store.cache_misses",
                  tracer.median("store.cache_misses"), "count");
    report.metric("store.journal_ms", tracer.median("store.journal"),
                  "ms");
    report.metric("store.journal_bytes",
                  tracer.median("store.journal_bytes"), "B");
    report.metric("store.serialize_ms", tracer.median("store.serialize"),
                  "ms");
    report.metric("store.results_bytes",
                  tracer.median("store.results_bytes"), "B");
    report.metric("store.write_results_ms",
                  tracer.median("store.write_results"), "ms");
}

/** core.run_ms, and core.unattributed_ms: run() minus the medians of
 *  the layer calls that make it up (pool, copy and glue time). */
void
coreMetrics(const Tracer &tracer, Report &report,
            const std::vector<std::string> &children)
{
    double run = tracer.median("core.run");
    double attributed = 0.0;
    for (const auto &child : children)
        attributed += tracer.median(child);
    report.metric("core.run_ms", run, "ms");
    report.metric("core.unattributed_ms", run - attributed, "ms");
}

class SweepStore final : public Workload
{
  public:
    explicit SweepStore(const Options &options)
        : options_(options), runner_(options.jobs)
    {
    }

    void
    setup(Report &report) override
    {
        config_ = storeSweep(options_);
        std::string dir = options_.workDir + "/sweep-store-warmup";
        fs::remove_all(dir);
        SweepConfig config = config_;
        config.outDir = dir;
        slots_ = runner_.run(config).size();
        referenceJson_ = readFile(dir + "/results.json");
        referenceCsv_ = readFile(dir + "/results.csv");
        bytesPerSlot_ = (double)directoryBytes(dir) / (double)slots_;
        report.check(slots_ > 0 && !referenceJson_.empty() &&
                     !referenceCsv_.empty());
        if (options_.wrongReference)
            referenceJson_ = corrupted(referenceJson_);
    }

    void
    measure(Report &report) override
    {
        SweepConfig config = config_;
        config.outDir = options_.workDir + "/sweep-store-run";
        measureIterations(
            options_, report, (double)slots_,
            [&] { fs::remove_all(config.outDir); },
            [&] { runner_.run(config); },
            [&] {
                report.check(
                    readFile(config.outDir + "/results.json") ==
                        referenceJson_ &&
                    readFile(config.outDir + "/results.csv") ==
                        referenceCsv_);
            });
        report.metric("store_bytes_per_slot", bytesPerSlot_, "B");
    }

    void
    operation(Tracer &tracer, Report &report) override
    {
        SweepConfig config = config_;
        config.outDir = options_.workDir + "/sweep-store-run";
        fs::remove_all(config.outDir);
        auto rows = tracer.span("core.run",
                                [&] { return runner_.run(config); });
        report.check(rows.size() == slots_ &&
                     readFile(config.outDir + "/results.json") ==
                         referenceJson_);
    }

    void
    replay(Tracer &tracer, Report &report) override
    {
        replayStoreLayers(tracer, report, config_, runner_,
                          options_.workDir + "/sweep-store-replay",
                          referenceJson_);
    }

    void
    layerMetrics(const Tracer &tracer, Report &report) override
    {
        storeLayerMetrics(tracer, report);
        coreMetrics(tracer, report,
                    {"workload.expand", "store.cache_cold",
                     "eval.evaluate", "store.journal",
                     "store.write_results"});
    }

  private:
    Options options_;
    ParallelSweepRunner runner_;
    SweepConfig config_;
    std::size_t slots_ = 0;
    std::string referenceJson_;
    std::string referenceCsv_;
    double bytesPerSlot_ = 0.0;
};

class SweepModel final : public Workload
{
  public:
    explicit SweepModel(const Options &options)
        : options_(options), runner_(options.jobs)
    {
    }

    void
    setup(Report &report) override
    {
        config_ = modelSweep(options_);
        auto rows = runner_.run(config_);
        slots_ = rows.size();
        reference_ = metricColumnHashes(rows);
        report.check(slots_ > 0);
        if (options_.wrongReference)
            reference_.front() ^= 1;
    }

    void
    measure(Report &report) override
    {
        std::vector<EvalResult> rows;
        measureIterations(
            options_, report, (double)slots_, [] {},
            [&] { rows = runner_.run(config_); },
            [&] {
                report.check(metricColumnHashes(rows) == reference_);
                rows = {};
            });
        // No store: the rows live in memory, one EvalResult per slot.
        report.metric("store_bytes_per_slot", (double)sizeof(EvalResult),
                      "B");
    }

    void
    operation(Tracer &tracer, Report &report) override
    {
        auto rows = tracer.span("core.run",
                                [&] { return runner_.run(config_); });
        report.check(metricColumnHashes(rows) == reference_);
    }

    void
    replay(Tracer &tracer, Report &report) override
    {
        SweepConfig storage;
        const SweepConfig &expanded =
            tracer.span("workload.expand", [&]() -> const SweepConfig & {
                return expandSweepWorkloads(config_, storage);
            });
        tracer.sample("workload.traffics",
                      (double)(expanded.traffics.size() -
                               config_.traffics.size()));
        auto arrays = tracer.span(
            "nvsim.characterize",
            [&] { return runner_.characterize(expanded); });
        tracer.sample("nvsim.arrays", (double)arrays.size());
        auto rows = tracer.span("eval.evaluate", [&] {
            return runner_.evaluateAll(arrays, expanded.traffics,
                                       expanded.reliability);
        });
        tracer.sample("eval.slots", (double)rows.size());
        report.check(metricColumnHashes(rows) == reference_);
    }

    void
    layerMetrics(const Tracer &tracer, Report &report) override
    {
        report.metric("workload.expand_ms",
                      tracer.median("workload.expand"), "ms");
        report.metric("workload.traffics",
                      tracer.median("workload.traffics"), "count");
        report.metric("nvsim.characterize_ms",
                      tracer.median("nvsim.characterize"), "ms");
        report.metric("nvsim.arrays", tracer.median("nvsim.arrays"),
                      "count");
        report.metric("eval.evaluate_ms", tracer.median("eval.evaluate"),
                      "ms");
        report.metric("eval.slots", tracer.median("eval.slots"), "count");
        coreMetrics(tracer, report,
                    {"workload.expand", "nvsim.characterize",
                     "eval.evaluate"});
    }

  private:
    Options options_;
    ParallelSweepRunner runner_;
    SweepConfig config_;
    std::size_t slots_ = 0;
    std::vector<std::uint64_t> reference_;
};

class Campaign final : public Workload
{
  public:
    explicit Campaign(const Options &options)
        : options_(options), shardRunner_(1)
    {
    }

    void
    setup(Report &report) override
    {
        config_ = storeSweep(options_);
        // The reference is what sweep-store writes: one process, --out.
        // At one job, so the journal is in slot order like the merge's.
        std::string referenceDir = options_.workDir + "/campaign-reference";
        fs::remove_all(referenceDir);
        SweepConfig single = config_;
        single.outDir = referenceDir;
        slots_ = shardRunner_.run(single).size();
        for (std::size_t i = 0; i < kArtifacts.size(); ++i)
            reference_[i] = readFile(referenceDir + "/" + kArtifacts[i]);
        if (options_.wrongReference)
            reference_[0] = corrupted(reference_[0]);

        std::string dir = options_.workDir + "/campaign-warmup";
        fs::remove_all(dir);
        lifecycle(dir);
        report.check(mergedMatches(dir));
        bytesPerSlot_ = (double)directoryBytes(dir) / (double)slots_;
    }

    void
    measure(Report &report) override
    {
        std::string dir = options_.workDir + "/campaign-run";
        measureIterations(
            options_, report, (double)slots_,
            [&] { fs::remove_all(dir); }, [&] { lifecycle(dir); },
            [&] { report.check(mergedMatches(dir)); });
        report.metric("store_bytes_per_slot", bytesPerSlot_, "B");
    }

    void
    operation(Tracer &tracer, Report &report) override
    {
        std::string dir = options_.workDir + "/campaign-run";
        fs::remove_all(dir);
        tracer.span("campaign.lifecycle", [&] { lifecycle(dir); });
        report.check(mergedMatches(dir));
    }

    void
    replay(Tracer &tracer, Report &report) override
    {
        std::string dir = options_.workDir + "/campaign-replay";
        fs::remove_all(dir);
        tracer.span("campaign.plan", [&] {
            campaign::planCampaign(dir, config_, kCampaignShards);
        });
        double maxMs = 0.0, sumMs = 0.0;
        for (std::size_t shard = 0; shard < kCampaignShards; ++shard) {
            auto begin = Clock::now();
            tracer.span("campaign.shard", [&] {
                campaign::runShard(dir, config_, shard, shardRunner_);
            });
            double ms = msSince(begin);
            maxMs = std::max(maxMs, ms);
            sumMs += ms;
        }
        tracer.sample("campaign.shard_ms.max", maxMs);
        tracer.sample("campaign.shard_ms.sum", sumMs);
        tracer.span("campaign.merge",
                    [&] { return campaign::mergeCampaign(dir); });
        auto scan = tracer.span("store.scan_checkpoint", [&] {
            return store::scanCheckpoint(campaign::mergedDir(dir));
        });
        report.check(mergedMatches(dir) && scan.headerOk &&
                     scan.entries.size() == slots_);

        // What the shards spend inside the store, replayed at full
        // sweep size on the shards' single job.
        replayStoreLayers(tracer, report, config_, shardRunner_,
                          options_.workDir + "/campaign-store-replay",
                          reference_[0]);
    }

    void
    layerMetrics(const Tracer &tracer, Report &report) override
    {
        storeLayerMetrics(tracer, report);
        report.metric("store.scan_checkpoint_ms",
                      tracer.median("store.scan_checkpoint"), "ms");
        report.metric("campaign.plan_ms", tracer.median("campaign.plan"),
                      "ms");
        report.metric("campaign.shard_ms.max",
                      tracer.median("campaign.shard_ms.max"), "ms");
        report.metric("campaign.shard_ms.sum",
                      tracer.median("campaign.shard_ms.sum"), "ms");
        report.metric("campaign.merge_ms", tracer.median("campaign.merge"),
                      "ms");
    }

  private:
    static constexpr std::array<const char *, 3> kArtifacts = {
        "results.json", "results.csv", "checkpoint.jsonl"};

    void
    lifecycle(const std::string &dir)
    {
        campaign::planCampaign(dir, config_, kCampaignShards);
        for (std::size_t shard = 0; shard < kCampaignShards; ++shard)
            campaign::runShard(dir, config_, shard, shardRunner_);
        campaign::mergeCampaign(dir);
    }

    bool
    mergedMatches(const std::string &dir) const
    {
        std::string merged = campaign::mergedDir(dir);
        for (std::size_t i = 0; i < kArtifacts.size(); ++i)
            if (readFile(merged + "/" + kArtifacts[i]) != reference_[i])
                return false;
        return true;
    }

    Options options_;
    ParallelSweepRunner shardRunner_;
    SweepConfig config_;
    std::size_t slots_ = 0;
    std::array<std::string, 3> reference_;
    double bytesPerSlot_ = 0.0;
};

} // namespace

SweepConfig
storeSweep(const Options &options)
{
    Rng rng(options.seed);
    CellCatalog catalog;
    SweepConfig config;
    config.cells = {catalog.optimistic(CellTech::STT),
                    catalog.pessimistic(CellTech::STT),
                    catalog.optimistic(CellTech::RRAM),
                    CellCatalog::sram16()};
    config.capacitiesBytes = {2.0 * kMiB, 8.0 * kMiB};
    config.targets = {OptTarget::ReadEDP, OptTarget::Leakage};
    int traffics = options.smoke ? 2 : 6;
    for (int i = 0; i < traffics; ++i) {
        double scale = (double)(1 + i);
        double reads = 1e9 * scale * (0.5 + rng.uniform());
        double writes = 1e7 * scale * (0.5 + rng.uniform());
        config.traffics.push_back(TrafficPattern::fromByteRates(
            "traffic" + std::to_string(i), reads, writes, 512));
    }
    config.reliability = reliabilitySpecs(options.smoke);
    config.jobs = options.jobs;
    return config;
}

SweepConfig
modelSweep(const Options &options)
{
    Rng rng(options.seed);
    CellCatalog catalog;
    SweepConfig config;
    config.cells = catalog.studyCells();
    config.capacitiesBytes = {1 * kMiB, 2 * kMiB, 4 * kMiB,
                              8 * kMiB, 16 * kMiB, 32 * kMiB};
    config.targets = {OptTarget::ReadLatency, OptTarget::WriteLatency,
                      OptTarget::ReadEDP,     OptTarget::WriteEDP,
                      OptTarget::ReadEnergy,  OptTarget::WriteEnergy,
                      OptTarget::Area,        OptTarget::Leakage};
    // The LLC suite at its 20M-instruction default takes ~18 s; 2e5
    // instructions keeps the cache simulation a share of the run, not
    // all of it.
    std::vector<std::string> specs = {
        R"({"name": "llc", "benchmark": "suite", "instructions": 2e5,
            "warmup": 5e4})",
        R"({"name": "graph", "graph": "facebook", "kernel": "bfs",
            "clock_ghz": )" + rate(rng, 1.0) + "}",
        R"({"name": "dnn", "network": "resnet26", "storage": "weights",
            "fps": )" + rate(rng, 60.0) + "}",
        R"({"name": "dnn", "network": "albert-base",
            "storage": "weights+activations", "fps": )" +
            rate(rng, 30.0) + "}",
        R"({"name": "kv-store", "ops_per_sec": )" + rate(rng, 1e6) + "}",
        R"({"name": "wal", "commits_per_sec": )" + rate(rng, 1e4) + "}",
    };
    if (options.smoke) {
        config.cells.resize(2);
        config.capacitiesBytes = {2 * kMiB};
        config.targets = {OptTarget::ReadEDP, OptTarget::Leakage};
        specs = {R"({"name": "llc", "benchmark": "gcc",
                     "instructions": 2e4, "warmup": 5e3})",
                 specs[4], specs[5]};
    }
    for (const auto &spec : specs)
        config.workloads.push_back(JsonValue::parse(spec));
    config.reliability = reliabilitySpecs(options.smoke);
    config.jobs = options.jobs;
    return config;
}

std::unique_ptr<Workload>
makeSweepStore(const Options &options)
{
    return std::make_unique<SweepStore>(options);
}

std::unique_ptr<Workload>
makeSweepModel(const Options &options)
{
    return std::make_unique<SweepModel>(options);
}

std::unique_ptr<Workload>
makeCampaign(const Options &options)
{
    return std::make_unique<Campaign>(options);
}

} // namespace perfbench
