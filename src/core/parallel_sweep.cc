#include "core/parallel_sweep.hh"

#include <algorithm>

#include "eval/batch.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/workload.hh"

namespace nvmexp {

const SweepConfig &
expandSweepWorkloads(const SweepConfig &config, SweepConfig &storage)
{
    if (config.workloads.empty())
        return config;
    storage = config;
    workload::TrafficContext context;
    context.wordBits = config.wordBits;
    auto patterns = workload::expandWorkloads(config.workloads, context,
                                              config.jobs);
    storage.traffics.insert(storage.traffics.end(), patterns.begin(),
                            patterns.end());
    storage.workloads.clear();
    return storage;
}

namespace {

/**
 * Resolve a sweep's reliability axis: one evaluator per spec, or the
 * single implicit {ecc: "none", scrub 0} default when the sweep has
 * none. Validation (unknown scheme, bad scrub interval) fires here
 * for programmatic SweepConfigs; config files validate at load.
 */
std::vector<reliability::ReliabilityEvaluator>
reliabilityEvaluators(
    const std::vector<reliability::ReliabilitySpec> &specs)
{
    std::vector<reliability::ReliabilityEvaluator> evaluators;
    evaluators.reserve(std::max<std::size_t>(1, specs.size()));
    if (specs.empty())
        evaluators.emplace_back(reliability::ReliabilitySpec{});
    for (const auto &spec : specs)
        evaluators.emplace_back(spec);
    return evaluators;
}

void
warnNoOrganization(const MemCell &cell, double capacity)
{
    warn("cell '", cell.name, "' has no valid organization", " at ",
         capacity / (1024.0 * 1024.0), " MiB; skipping");
}

/**
 * Characterize one (cell, capacity) pair: the best organization per
 * optimization target, or empty when no organization is valid. This is
 * the unit of parallel work for characterize(); keeping it as one item
 * (rather than per target) avoids enumerating the design space
 * targets-times over, matching the serial loop's cost.
 *
 * With a store, each per-target winner lives under its own content-
 * hash key: when every target hits, the (expensive) design-space
 * enumeration is skipped entirely; any miss recomputes the pair once
 * and refreshes all of its entries. Cached winners deserialize
 * bit-identically, so results don't depend on cache state.
 */
std::vector<ArrayResult>
characterizePair(const SweepConfig &config, const MemCell &cell,
                 double capacity, store::ResultStore *resultStore)
{
    ArrayConfig ac;
    ac.capacityBytes = capacity;
    ac.wordBits = config.wordBits;
    ac.nodeNm = implementationNode(cell, config.nodeNm,
                                   config.sramNodeNm);

    std::vector<std::string> keys;
    if (resultStore) {
        keys.reserve(config.targets.size());
        for (OptTarget target : config.targets) {
            keys.push_back(store::ResultStore::characterizationKey(
                cell, ac, target));
        }
        std::vector<ArrayResult> cached(keys.size());
        std::size_t hits = 0, invalid = 0;
        for (std::size_t t = 0; t < keys.size(); ++t) {
            switch (resultStore->lookupArray(keys[t], cached[t])) {
              case store::ResultStore::CacheOutcome::Hit:
                ++hits;
                break;
              case store::ResultStore::CacheOutcome::HitInvalid:
                ++invalid;
                break;
              case store::ResultStore::CacheOutcome::Miss:
                break;
            }
        }
        if (invalid == keys.size() && !keys.empty()) {
            warnNoOrganization(cell, capacity);
            return {};
        }
        if (hits == keys.size())
            return cached;
    }

    ArrayDesigner designer(cell, ac);
    auto candidates = designer.enumerate();
    if (candidates.empty()) {
        warnNoOrganization(cell, capacity);
        if (resultStore) {
            for (const auto &key : keys)
                resultStore->storeInvalid(key);
        }
        return {};
    }
    std::vector<ArrayResult> best;
    best.reserve(config.targets.size());
    for (std::size_t t = 0; t < config.targets.size(); ++t) {
        OptTarget target = config.targets[t];
        const ArrayResult *winner = &candidates.front();
        for (const auto &r : candidates)
            if (r.metric(target) < winner->metric(target))
                winner = &r;
        best.push_back(*winner);
        if (resultStore)
            resultStore->storeArray(keys[t], *winner);
    }
    return best;
}

} // namespace

ParallelSweepRunner::ParallelSweepRunner(int jobs)
    : jobs_(ThreadPool::resolveJobs(jobs))
{
}

void
ParallelSweepRunner::shard(
    std::size_t count,
    const std::function<void(std::size_t)> &body) const
{
    if (jobs_ <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<ThreadPool>(jobs_);
    parallelFor(*pool_, count, body);
}

std::vector<ArrayResult>
ParallelSweepRunner::characterizeWithStore(
    const SweepConfig &config, store::ResultStore *resultStore) const
{
    if (config.cells.empty())
        fatal("sweep has no cells configured");

    // One work item per (cell, capacity) pair; slots, and the warnings
    // each pair raised, keep serial order even though items complete
    // in any order.
    std::size_t pairs =
        config.cells.size() * config.capacitiesBytes.size();
    std::vector<std::vector<ArrayResult>> slots(pairs);
    std::vector<std::string> warnings(pairs);
    shard(pairs, [&](std::size_t idx) {
        ScopedLogCapture capture(warnings[idx]);
        const MemCell &cell =
            config.cells[idx / config.capacitiesBytes.size()];
        double capacity =
            config.capacitiesBytes[idx % config.capacitiesBytes.size()];
        slots[idx] = characterizePair(config, cell, capacity,
                                      resultStore);
    });
    for (const auto &lines : warnings)
        printCaptured(lines);

    std::vector<ArrayResult> arrays;
    arrays.reserve(pairs * config.targets.size());
    for (const auto &slot : slots)
        arrays.insert(arrays.end(), slot.begin(), slot.end());
    return arrays;
}

std::vector<ArrayResult>
ParallelSweepRunner::characterize(const SweepConfig &config) const
{
    lastStoreStats_ = store::StoreStats{};
    if (config.outDir.empty())
        return characterizeWithStore(config, nullptr);

    store::ResultStore resultStore(config.outDir, config.cacheDir);
    auto arrays = characterizeWithStore(config, &resultStore);
    lastStoreStats_ = resultStore.stats();
    resultStore.writeStats();
    return arrays;
}

std::vector<EvalResult>
ParallelSweepRunner::evaluateAll(
    const std::vector<ArrayResult> &arrays,
    const std::vector<TrafficPattern> &traffics) const
{
    return evaluateAll(arrays, traffics, {});
}

std::vector<EvalResult>
ParallelSweepRunner::evaluateAll(
    const std::vector<ArrayResult> &arrays,
    const std::vector<TrafficPattern> &traffics,
    const std::vector<reliability::ReliabilitySpec> &specs) const
{
    auto evaluators = reliabilityEvaluators(specs);
    BatchEvalContext context(arrays, traffics, evaluators);
    std::vector<EvalResult> results(context.points());
    shardBatches(context, results, nullptr, {});
    return results;
}

void
ParallelSweepRunner::shardBatches(
    const BatchEvalContext &context, std::vector<EvalResult> &results,
    const std::vector<char> *todo,
    const std::function<void(std::size_t)> &onSlot) const
{
    std::size_t slots = context.points();
    if (slots == 0)
        return;
    std::size_t size = context.defaultBatchSize(jobs_);
    std::size_t batches = (slots + size - 1) / size;
    shard(batches, [&](std::size_t b) {
        context.evaluateRange(b * size,
                              std::min(slots, (b + 1) * size), results,
                              todo, onSlot);
    });
}

std::vector<EvalResult>
ParallelSweepRunner::run(const SweepConfig &rawConfig) const
{
    // Workload specs become traffic patterns here — the one place the
    // sweep engine touches application behaviour — so every traffic
    // source flows through the registry and the store fingerprints the
    // fully expanded sweep.
    SweepConfig expandedStorage;
    const SweepConfig &config =
        expandSweepWorkloads(rawConfig, expandedStorage);
    if (config.traffics.empty())
        fatal("sweep has no traffic patterns configured");
    lastStoreStats_ = store::StoreStats{};
    if (config.outDir.empty()) {
        return evaluateAll(characterizeWithStore(config, nullptr),
                           config.traffics, config.reliability);
    }
    return runStoreBacked(config, {});
}

std::vector<EvalResult>
ParallelSweepRunner::runSelected(
    const SweepConfig &rawConfig,
    const std::function<bool(std::size_t)> &owned) const
{
    SweepConfig expandedStorage;
    const SweepConfig &config =
        expandSweepWorkloads(rawConfig, expandedStorage);
    if (config.traffics.empty())
        fatal("sweep has no traffic patterns configured");
    if (config.outDir.empty())
        fatal("runSelected needs a store directory (outDir)");
    lastStoreStats_ = store::StoreStats{};
    return runStoreBacked(config, owned);
}

std::vector<EvalResult>
ParallelSweepRunner::runStoreBacked(
    const SweepConfig &config,
    const std::function<bool(std::size_t)> &owned) const
{
    store::ResultStore resultStore(config.outDir, config.cacheDir);
    auto arrays = characterizeWithStore(config, &resultStore);

    auto evaluators = reliabilityEvaluators(config.reliability);
    BatchEvalContext context(arrays, config.traffics, evaluators);
    const std::size_t slots = context.points();
    // The journal always claims the FULL slot count, even for a shard
    // run that owns a subset: a campaign merge joins shard journals
    // into one whose header is byte-identical to a single process's.
    auto done = resultStore.openCheckpoint(
        store::sweepFingerprint(config), slots, config.resume);

    // Index-addressed slots: replayed checkpoint entries and freshly
    // evaluated ones land in the same serial-order positions, so the
    // output is byte-identical to an uninterrupted run under any
    // worker count, wherever the batches split. Slots outside the
    // owned selection are simply never evaluated or journaled.
    std::vector<EvalResult> results(slots);
    std::vector<char> todo(slots, 1);
    if (owned) {
        for (std::size_t idx = 0; idx < slots; ++idx)
            todo[idx] = owned(idx) ? 1 : 0;
    }
    for (const auto &[slot, result] : done) {
        results[slot] = result;
        todo[slot] = 0;
    }
    shardBatches(context, results, &todo, [&](std::size_t idx) {
        resultStore.checkpointSlot(idx, results[idx]);
    });
    resultStore.closeCheckpoint();
    if (owned) {
        // A shard's journal is its only copy of the rows: the merge
        // writes the results artifacts once, from every shard's
        // journal, so a shard writes none.
        std::vector<EvalResult> mine;
        for (std::size_t idx = 0; idx < slots; ++idx)
            if (owned(idx))
                mine.push_back(std::move(results[idx]));
        results = std::move(mine);
    } else {
        resultStore.writeResults(results);
    }
    lastStoreStats_ = resultStore.stats();
    resultStore.writeStats();
    return results;
}

std::vector<ArrayResult>
ParallelSweepRunner::optimizeAll(const std::vector<MemCell> &cells,
                                 double capacityBytes, int wordBits,
                                 OptTarget target, int nodeNm,
                                 int sramNodeNm) const
{
    std::vector<ArrayResult> arrays(cells.size());
    std::vector<std::string> warnings(cells.size());
    shard(cells.size(), [&](std::size_t idx) {
        ScopedLogCapture capture(warnings[idx]);
        const MemCell &cell = cells[idx];
        ArrayConfig config;
        config.capacityBytes = capacityBytes;
        config.wordBits = wordBits;
        config.nodeNm = implementationNode(cell, nodeNm, sramNodeNm);
        ArrayDesigner designer(cell, config);
        arrays[idx] = designer.optimize(target);
    });
    for (const auto &lines : warnings)
        printCaptured(lines);
    return arrays;
}

} // namespace nvmexp
