/**
 * @file
 * Differential tier for the batched sweep evaluation path
 * (eval/batch.hh), the sweep engine's only evaluation path: it must be
 * bitwise indistinguishable from the per-point oracle below — same
 * EvalResults, reliability sub-object included — across every shipped
 * config, randomized sweep axes, any split of the slots into ranges,
 * any worker count, and through a mid-batch checkpoint resume.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "celldb/tentpole.hh"
#include "core/config.hh"
#include "core/parallel_sweep.hh"
#include "eval/batch.hh"
#include "reliability/reliability.hh"
#include "store/result_store.hh"
#include "util/random.hh"
#include "workload/workload.hh"

#include "../support/fixtures.hh"

namespace nvmexp {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE((bool)in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path,
           const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &line : lines)
        out << line << '\n';
}

/** The sweep's effective traffic list, workload specs expanded the
 *  same way ParallelSweepRunner::run() expands them. */
std::vector<TrafficPattern>
expandedTraffics(const SweepConfig &config)
{
    std::vector<TrafficPattern> traffics = config.traffics;
    if (!config.workloads.empty()) {
        workload::TrafficContext context;
        context.wordBits = config.wordBits;
        auto patterns = workload::expandWorkloads(config.workloads,
                                                  context, config.jobs);
        traffics.insert(traffics.end(), patterns.begin(),
                        patterns.end());
    }
    return traffics;
}

/**
 * The per-point oracle: every expanded slot (spec innermost) pays its
 * own base and reliability evaluation, on handles built per point from
 * the array and traffic values (the value overload of evaluate()), so
 * it shares nothing with the batched path. This is the definition the
 * batched path must reproduce bit for bit. No specs means the implicit
 * default spec, as in the sweep engine.
 */
std::vector<EvalResult>
perPointOracle(const std::vector<ArrayResult> &arrays,
               const std::vector<TrafficPattern> &traffics,
               std::vector<reliability::ReliabilitySpec> specs)
{
    if (specs.empty())
        specs.emplace_back();
    std::vector<EvalResult> results;
    for (const auto &array : arrays) {
        for (const auto &traffic : traffics) {
            for (const auto &spec : specs) {
                results.push_back(evaluate(array, traffic));
                results.back().reliability =
                    reliability::ReliabilityEvaluator(spec).evaluate(
                        array);
            }
        }
    }
    return results;
}

void
expectIdentical(const std::vector<EvalResult> &batched,
                const std::vector<EvalResult> &expected,
                const std::string &label)
{
    ASSERT_EQ(batched.size(), expected.size()) << label;
    for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_TRUE(store::identical(batched[i], expected[i]))
            << label << " slot " << i;
    }
}

class BatchEquivalenceTest : public testsupport::QuietTest
{
  protected:
    /** Fresh per-test store directory. */
    std::string
    storeDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_batch_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() +
            "_" + name;
        std::filesystem::remove_all(dir);
        return dir;
    }
};

/** Every shipped study config, evaluated batched at one and at eight
 *  workers: both runs bitwise identical to the per-point oracle. */
TEST_F(BatchEquivalenceTest, ShippedConfigsMatchScalarAtAnyJobCount)
{
    const std::string configDir =
        std::string(NVMEXP_SOURCE_DIR) + "/config";
    std::size_t checked = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(configDir)) {
        if (entry.path().extension() != ".json")
            continue;
        ExperimentConfig experiment =
            loadExperimentFile(entry.path().string());
        SweepConfig sweep = experiment.sweep;
        sweep.outDir.clear();
        sweep.resume = false;
        auto traffics = expandedTraffics(sweep);

        // Characterization is deterministic and path-independent:
        // do it once and diff only the evaluation stage.
        ParallelSweepRunner characterizer(8);
        auto arrays = characterizer.characterize(sweep);
        ASSERT_FALSE(arrays.empty()) << entry.path();

        auto oracle = perPointOracle(arrays, traffics,
                                     sweep.reliability);
        for (int jobs : {1, 8}) {
            ParallelSweepRunner runner(jobs);
            auto batched = runner.evaluateAll(arrays, traffics,
                                              sweep.reliability);
            std::string label = entry.path().filename().string();
            label += " -j";
            label += std::to_string(jobs);
            expectIdentical(batched, oracle, label);
        }
        ++checked;
    }
    // The repo ships eight study configs; a glob that silently
    // matches nothing would vacuously pass.
    EXPECT_GE(checked, 8u);
}

/** Property test over randomized sweep axes: random subsets of a
 *  pre-characterized array universe x random traffics x random
 *  reliability specs, batched == oracle at 1 and 8 workers. */
TEST_F(BatchEquivalenceTest, RandomizedAxesMatchScalar)
{
    // Characterize the full universe once; trials draw arrays from it
    // instead of re-running the (expensive) design-space enumeration.
    CellCatalog catalog;
    SweepConfig universe;
    universe.cells = {CellCatalog::sram16(),
                      catalog.optimistic(CellTech::STT),
                      catalog.pessimistic(CellTech::RRAM),
                      catalog.optimistic(CellTech::FeFET)};
    universe.capacitiesBytes = {1.0 * 1024 * 1024, 4.0 * 1024 * 1024};
    universe.targets = {OptTarget::ReadEDP, OptTarget::Area};
    ParallelSweepRunner characterizer(8);
    auto pool = characterizer.characterize(universe);
    ASSERT_FALSE(pool.empty());

    const auto &schemes = reliability::eccSchemes();
    Rng rng(0xBA7C);
    for (int trial = 0; trial < 12; ++trial) {
        std::vector<ArrayResult> arrays;
        std::size_t narrays = 1 + rng.range(pool.size());
        for (std::size_t i = 0; i < narrays; ++i)
            arrays.push_back(pool[rng.range(pool.size())]);

        std::vector<TrafficPattern> traffics;
        std::size_t ntraffics = 1 + rng.range(4);
        for (std::size_t i = 0; i < ntraffics; ++i) {
            std::string name = "t";
            name += std::to_string(i);
            traffics.push_back(TrafficPattern::fromByteRates(
                name, 1e6 * (1.0 + rng.uniform() * 1e4),
                1e5 * (1.0 + rng.uniform() * 1e4), 512));
        }

        // Zero specs exercises the implicit-default-spec path.
        std::vector<reliability::ReliabilitySpec> specs;
        std::size_t nspecs = rng.range(4);
        for (std::size_t i = 0; i < nspecs; ++i) {
            reliability::ReliabilitySpec spec;
            spec.ecc = schemes[rng.range(schemes.size())].name;
            spec.scrubIntervalSec =
                rng.bernoulli(0.5) ? 0.0 : 60.0 + rng.uniform() * 1e5;
            specs.push_back(spec);
        }

        auto oracle = perPointOracle(arrays, traffics, specs);
        for (int jobs : {1, 8}) {
            ParallelSweepRunner runner(jobs);
            auto batched = runner.evaluateAll(arrays, traffics, specs);
            std::string label = "trial ";
            label += std::to_string(trial);
            label += " -j";
            label += std::to_string(jobs);
            expectIdentical(batched, oracle, label);
        }
    }
}

/** Range boundaries are pure scheduling: evaluating the 96 slots as
 *  contiguous ranges of any size — 1, primes that straddle spec runs,
 *  the whole sweep, one past it — matches one full-range pass and the
 *  oracle. With a todo mask (checkpoint-replayed slots), masked slots
 *  stay untouched and onSlot fires exactly for the live ones. */
TEST_F(BatchEquivalenceTest, AnyRangeSplitMatchesOneFullPass)
{
    SweepConfig config = testsupport::reliabilitySweep();
    auto arrays = ParallelSweepRunner(4).characterize(config);
    std::vector<reliability::ReliabilityEvaluator> evaluators(
        config.reliability.begin(), config.reliability.end());
    BatchEvalContext context(arrays, config.traffics, evaluators);
    const std::size_t slots = context.points();
    ASSERT_EQ(slots, 96u);

    std::vector<EvalResult> full(slots);
    context.evaluateRange(0, slots, full);
    expectIdentical(full,
                    perPointOracle(arrays, config.traffics,
                                   config.reliability),
                    "full pass vs oracle");

    // Masked slots cut into spec runs at varying offsets, so some runs
    // lose their first slot and must still compute their base.
    std::vector<char> todo(slots, 1);
    std::size_t live = slots;
    for (std::size_t idx = 0; idx < slots; ++idx) {
        if (idx % 5 == 1 || idx % 7 == 3) {
            todo[idx] = 0;
            --live;
        }
    }

    for (std::size_t size : {std::size_t{1}, std::size_t{3},
                             std::size_t{7}, slots, slots + 1}) {
        std::string label = "range size " + std::to_string(size);
        std::vector<EvalResult> split(slots);
        std::vector<EvalResult> masked(slots);
        std::size_t fired = 0;
        for (std::size_t begin = 0; begin < slots; begin += size) {
            // The last range may overrun: evaluateRange clamps it.
            context.evaluateRange(begin, begin + size, split);
            context.evaluateRange(begin, begin + size, masked, &todo,
                                  [&](std::size_t idx) {
                                      EXPECT_TRUE(todo[idx]) << idx;
                                      ++fired;
                                  });
        }
        expectIdentical(split, full, label);
        EXPECT_EQ(fired, live) << label;
        // An untouched slot is still a default row: null handles, and
        // every other field as value-initialized. The codec cannot
        // write through a null handle, so the untouched slot and a
        // default row get the same placeholder handles before the
        // field-by-field comparison.
        auto placeholderArray = std::make_shared<const ArrayResult>();
        auto placeholderTraffic =
            std::make_shared<const TrafficPattern>();
        for (std::size_t idx = 0; idx < slots; ++idx) {
            if (todo[idx]) {
                EXPECT_TRUE(store::identical(masked[idx], full[idx]))
                    << label << " slot " << idx;
                continue;
            }
            EXPECT_TRUE(!masked[idx].array && !masked[idx].traffic)
                << label << " slot " << idx;
            EvalResult untouched = masked[idx];
            EvalResult blank;
            untouched.array = blank.array = placeholderArray;
            untouched.traffic = blank.traffic = placeholderTraffic;
            EXPECT_TRUE(store::identical(untouched, blank))
                << label << " slot " << idx;
        }
    }
}

/** A sweep killed mid-batch leaves a journal whose completed slots
 *  cut across a batch boundary; the resumed batched run must replay
 *  them and recompute only the rest, byte-identically. */
TEST_F(BatchEquivalenceTest, MidBatchCheckpointResumeReplaysExactly)
{
    // 96 slots at 4 jobs run in default batches of 6 slots, so a
    // journal holding 3 completed slots tears mid-batch.
    SweepConfig config = testsupport::reliabilitySweep();
    config.jobs = 4;
    config.outDir = storeDir("uninterrupted");
    ParallelSweepRunner runner(config.jobs);
    auto fresh = runner.run(config);
    std::string golden = readFile(config.outDir + "/results.json");

    config.outDir = storeDir("interrupted");
    runner.run(config);
    std::string journal = config.outDir + "/checkpoint.jsonl";
    auto lines = readLines(journal);
    ASSERT_EQ(lines.size(), 1u + fresh.size());
    lines.resize(4);  // header + 3 completed slots
    writeLines(journal, lines);
    std::filesystem::remove(config.outDir + "/results.json");
    std::filesystem::remove(config.outDir + "/results.csv");

    config.resume = true;
    auto resumed = runner.run(config);
    expectIdentical(resumed, fresh, "resumed");
    EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);

    store::StoreStats stats = store::loadStats(config.outDir);
    EXPECT_EQ(stats.checkpointLoaded, 3u);
    EXPECT_EQ(stats.checkpointComputed, fresh.size() - 3u);
}

/** Characterization depends only on (cell, capacity, target): a
 *  config edit confined to the innermost reliability axis must be
 *  served 100% from the characterization cache (no re-enumeration),
 *  while the changed fingerprint correctly discards the checkpoint. */
TEST_F(BatchEquivalenceTest, SpecAxisChangeKeepsCharacterizationCached)
{
    SweepConfig config = testsupport::reliabilitySweep();
    config.jobs = 4;
    config.outDir = storeDir("specaxis");
    ParallelSweepRunner runner(config.jobs);
    runner.run(config);
    store::StoreStats cold = runner.lastStoreStats();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, 16u);  // 4 cells x 2 caps x 2 targets

    // Perturb only the innermost axis: a third spec and a different
    // scrub interval on the second.
    config.reliability[1].scrubIntervalSec = 86400.0;
    reliability::ReliabilitySpec dec;
    dec.ecc = "dec-78-64";
    config.reliability.push_back(dec);

    auto results = runner.run(config);
    store::StoreStats warm = runner.lastStoreStats();
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheHits, warm.cacheLookups());
    EXPECT_EQ(warm.cacheHits, 16u);
    // New fingerprint: every (now 144) evaluation slot is fresh.
    EXPECT_EQ(warm.checkpointLoaded, 0u);
    EXPECT_EQ(warm.checkpointComputed, results.size());

    // And the cache-served batched rows still match the oracle over
    // freshly characterized (store-less) arrays.
    SweepConfig storeless = config;
    storeless.outDir.clear();
    auto expected = perPointOracle(runner.characterize(storeless),
                                   config.traffics, config.reliability);
    expectIdentical(results, expected, "cache-served vs cold oracle");
}

} // namespace
} // namespace nvmexp
