#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "core/sweep.hh"
#include "store/serialize.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

using testsupport::reliabilitySweep;
using testsupport::wideSweep;

/** Exact (bitwise, via operator==) equality across every field that
 *  identifies an EvalResult and every metric it carries. */
void
expectIdentical(const std::vector<EvalResult> &lhs,
                const std::vector<EvalResult> &rhs)
{
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
        SCOPED_TRACE("result " + std::to_string(i));
        const EvalResult &a = lhs[i];
        const EvalResult &b = rhs[i];
        EXPECT_EQ(a.array->cell.name, b.array->cell.name);
        EXPECT_EQ(a.array->capacityBytes, b.array->capacityBytes);
        EXPECT_EQ(a.array->readLatency, b.array->readLatency);
        EXPECT_EQ(a.array->writeLatency, b.array->writeLatency);
        EXPECT_EQ(a.array->areaM2, b.array->areaM2);
        EXPECT_EQ(a.traffic->name, b.traffic->name);
        EXPECT_EQ(a.dynamicPower, b.dynamicPower);
        EXPECT_EQ(a.leakagePower, b.leakagePower);
        EXPECT_EQ(a.totalPower, b.totalPower);
        EXPECT_EQ(a.latencyLoad, b.latencyLoad);
        EXPECT_EQ(a.slowdown, b.slowdown);
        EXPECT_EQ(a.totalAccessLatency, b.totalAccessLatency);
        EXPECT_EQ(a.meetsReadBandwidth, b.meetsReadBandwidth);
        EXPECT_EQ(a.meetsWriteBandwidth, b.meetsWriteBandwidth);
        EXPECT_EQ(a.lifetimeSec, b.lifetimeSec);
    }
}

TEST(ParallelSweep, OneAndManyThreadsProduceIdenticalOrderings)
{
    SweepConfig sweep = wideSweep();
    auto serial = ParallelSweepRunner(1).run(sweep);
    ASSERT_EQ(serial.size(),
              4u * 2u * 2u * 3u);  // cells x caps x targets x traffics
    for (int jobs : {2, 4, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expectIdentical(serial, ParallelSweepRunner(jobs).run(sweep));
    }
}

TEST(ParallelSweep, MatchesSerialRunSweepEntryPoint)
{
    SweepConfig sweep = wideSweep();
    sweep.jobs = 1;
    auto serial = runSweep(sweep);
    sweep.jobs = 4;
    expectIdentical(serial, runSweep(sweep));
}

TEST(ParallelSweep, CharacterizeOrderingIsThreadCountInvariant)
{
    SweepConfig sweep = wideSweep();
    auto serial = ParallelSweepRunner(1).characterize(sweep);
    auto parallel = ParallelSweepRunner(8).characterize(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cell.name, parallel[i].cell.name);
        EXPECT_EQ(serial[i].capacityBytes, parallel[i].capacityBytes);
        EXPECT_EQ(serial[i].readLatency, parallel[i].readLatency);
        EXPECT_EQ(serial[i].areaM2, parallel[i].areaM2);
    }
}

/** Repeated parallel runs over Rng-seeded traffic must be
 *  deterministic: same seed => byte-identical result sequence. */
TEST(ParallelSweep, SeededTrafficRunsAreDeterministic)
{
    auto buildSweep = [](std::uint64_t seed) {
        Rng rng(seed);
        SweepConfig sweep = wideSweep();
        sweep.traffics.clear();
        for (int i = 0; i < 6; ++i) {
            sweep.traffics.push_back(TrafficPattern::fromByteRates(
                "rand" + std::to_string(i),
                1e8 + rng.uniform() * 10e9, rng.uniform() * 1e9, 512));
        }
        return sweep;
    };
    auto first = ParallelSweepRunner(4).run(buildSweep(0xD5EEDull));
    auto second = ParallelSweepRunner(4).run(buildSweep(0xD5EEDull));
    expectIdentical(first, second);

    // A different seed must actually change the workload (guards
    // against the generator silently ignoring the seed).
    auto other = ParallelSweepRunner(4).run(buildSweep(0xBEEFull));
    ASSERT_EQ(other.size(), first.size());
    bool anyDifferent = false;
    for (std::size_t i = 0; i < first.size(); ++i)
        if (first[i].totalPower != other[i].totalPower)
            anyDifferent = true;
    EXPECT_TRUE(anyDifferent);
}

TEST(ParallelSweep, EvaluateAllIsArrayMajor)
{
    SweepConfig sweep = wideSweep();
    ParallelSweepRunner runner(4);
    auto arrays = runner.characterize(sweep);
    auto evals = runner.evaluateAll(arrays, sweep.traffics);
    ASSERT_EQ(evals.size(), arrays.size() * sweep.traffics.size());
    for (std::size_t i = 0; i < evals.size(); ++i) {
        EXPECT_EQ(evals[i].array->cell.name,
                  arrays[i / sweep.traffics.size()].cell.name);
        EXPECT_EQ(evals[i].traffic->name,
                  sweep.traffics[i % sweep.traffics.size()].name);
    }
}

/** The sweep's rows share their array and traffic: one handle per
 *  characterized array and one per traffic pattern, which every row
 *  evaluated against it points at (arrays x traffics x specs, spec
 *  innermost). */
void
expectSharedHandles(const std::vector<EvalResult> &rows,
                    std::size_t narrays, std::size_t ntraffics,
                    std::size_t nspecs)
{
    ASSERT_EQ(rows.size(), narrays * ntraffics * nspecs);
    const std::size_t block = ntraffics * nspecs;
    std::set<const ArrayResult *> arrays;
    std::set<const TrafficPattern *> traffics;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        ASSERT_TRUE(rows[i].array && rows[i].traffic);
        arrays.insert(rows[i].array.get());
        traffics.insert(rows[i].traffic.get());
        EXPECT_EQ(rows[i].array, rows[i - i % block].array);
        EXPECT_EQ(rows[i].traffic,
                  rows[(i / nspecs) % ntraffics * nspecs].traffic);
    }
    EXPECT_EQ(arrays.size(), narrays);
    EXPECT_EQ(traffics.size(), ntraffics);
}

TEST(ParallelSweep, RowsShareOneHandlePerArrayAndTraffic)
{
    SweepConfig sweep = reliabilitySweep();
    const std::size_t ntraffics = sweep.traffics.size();
    auto arrays = ParallelSweepRunner(4).characterize(sweep);
    ASSERT_EQ(arrays.size(), 16u);
    std::string dir = ::testing::TempDir() + "nvmexp_parallel_shared";
    for (int jobs : {1, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        ParallelSweepRunner runner(jobs);
        expectSharedHandles(runner.run(sweep), arrays.size(), ntraffics,
                            2);
        expectSharedHandles(
            runner.evaluateAll(arrays, sweep.traffics, sweep.reliability),
            arrays.size(), ntraffics, 2);
        expectSharedHandles(runner.evaluateAll(arrays, sweep.traffics),
                            arrays.size(), ntraffics, 1);

        // A fresh store-backed run evaluates every slot the same way.
        SweepConfig stored = sweep;
        stored.outDir = dir;
        std::filesystem::remove_all(dir);
        expectSharedHandles(runner.run(stored), arrays.size(), ntraffics,
                            2);
    }
    std::filesystem::remove_all(dir);
}

/** A shard run returns only the rows it owns, in slot order, each with
 *  both handles set and equal to the full run's row. */
TEST(ParallelSweep, ShardRunReturnsOnlyOwnedRowsWithHandles)
{
    SweepConfig sweep = reliabilitySweep();
    auto full = ParallelSweepRunner(1).run(sweep);
    ASSERT_EQ(full.size(), 96u);
    auto owned = [](std::size_t slot) { return slot % 3 == 1; };
    std::string dir = ::testing::TempDir() + "nvmexp_parallel_shard";
    for (int jobs : {1, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        std::filesystem::remove_all(dir);
        SweepConfig shard = sweep;
        shard.outDir = dir;
        auto rows = ParallelSweepRunner(jobs).runSelected(shard, owned);
        ASSERT_EQ(rows.size(), 32u);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            SCOPED_TRACE("row " + std::to_string(i));
            ASSERT_TRUE(rows[i].array && rows[i].traffic);
            EXPECT_TRUE(store::identical(rows[i], full[3 * i + 1]));
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(ParallelSweep, OptimizeAllKeepsCellOrder)
{
    CellCatalog catalog;
    auto cells = catalog.studyCells();
    auto arrays = ParallelSweepRunner(4).optimizeAll(
        cells, 2.0 * 1024 * 1024, 512, OptTarget::ReadEDP);
    ASSERT_EQ(arrays.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(arrays[i].cell.name, cells[i].name);
}

TEST(ParallelSweep, WarningsPrintInPairOrderAtAnyJobCount)
{
    CellCatalog catalog;
    SweepConfig config;
    config.cells = catalog.studyCells();
    // 1025 B fits no organization: every cell warns there, by name.
    config.capacitiesBytes = {1025.0, 1.0 * 1024 * 1024,
                              4.0 * 1024 * 1024};
    config.targets = {OptTarget::ReadEDP};
    bool quiet = isQuiet();
    setQuiet(false);
    auto stderrAt = [&](int jobs) {
        ::testing::internal::CaptureStderr();
        ParallelSweepRunner(jobs).characterize(config);
        ParallelSweepRunner(jobs).optimizeAll(
            config.cells, 2.0 * 1024 * 1024, 512, OptTarget::ReadEDP);
        return ::testing::internal::GetCapturedStderr();
    };
    std::string serial = stderrAt(1);
    EXPECT_NE(serial.find("warn: cell 'PCM-Opt' has not been demonstrated "
                          "below 28 nm; projecting to 22 nm\n"),
              std::string::npos);
    EXPECT_NE(serial.find("warn: cell 'SRAM' has no valid organization"),
              std::string::npos);
    for (int run = 0; run < 20; ++run)
        EXPECT_EQ(stderrAt(8), serial) << "run " << run;
    setQuiet(quiet);
}

} // namespace
} // namespace nvmexp
