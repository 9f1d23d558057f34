/**
 * Golden-file regression tier: a small reference sweep whose
 * serialized results are committed under tests/data/. Any change to
 * the characterization or evaluation pipeline that moves a metric
 * shows up as a structural diff against the golden file.
 *
 * To intentionally re-baseline after a deliberate model change:
 *   NVMEXP_REGOLD=1 build/tests/integration_test_golden_sweep
 * and commit the rewritten tests/data/golden_sweep.json.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "../support/golden_compare.hh"
#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

using testsupport::referenceSweep;

const char *kGoldenRelPath = "tests/data/golden_sweep.json";

std::string
goldenPath()
{
    return std::string(NVMEXP_SOURCE_DIR) + "/" + kGoldenRelPath;
}

class GoldenSweep : public testsupport::QuietTest
{
};

TEST_F(GoldenSweep, MetricsMatchTheCommittedReference)
{
    std::string current =
        store::serializeResults(runSweep(referenceSweep()));

    if (std::getenv("NVMEXP_REGOLD")) {
        writeFileAtomically(goldenPath(), current);
        GTEST_SKIP() << "regenerated " << kGoldenRelPath;
    }

    std::string golden = testsupport::fileText(goldenPath());
    std::vector<std::string> diffs;
    // Tolerance 0: the store's exact double serialization makes the
    // golden comparison bitwise; any drift is a real model change.
    bool same = testsupport::jsonNear(golden, current, 0.0, diffs);
    for (const auto &diff : diffs)
        ADD_FAILURE() << diff;
    EXPECT_TRUE(same)
        << "reference sweep diverged from " << kGoldenRelPath
        << "; if intentional, regenerate with NVMEXP_REGOLD=1";
    // Byte-exact too: the golden pins the serializer's layout, number
    // and escape formatting, not only the values.
    EXPECT_TRUE(testsupport::fileText(goldenPath()) == current)
        << "serialized reference sweep is not byte-identical to "
        << kGoldenRelPath;
}

TEST_F(GoldenSweep, StoreRoundTripAndCacheReproduceTheReference)
{
    if (std::getenv("NVMEXP_REGOLD"))
        GTEST_SKIP() << "regeneration run";

    std::string dir = ::testing::TempDir() + "nvmexp_golden_store";
    std::filesystem::remove_all(dir);

    SweepConfig config = referenceSweep();
    config.outDir = dir;
    runSweep(config);
    // Second run: every array must come from the characterization
    // cache, and the persisted artifact must still match the golden
    // file after a full disk round trip.
    runSweep(config);

    store::StoreStats stats = store::loadStats(dir);
    EXPECT_EQ(stats.cacheMisses, 0u);
    EXPECT_EQ(stats.cacheHits, stats.cacheLookups());
    EXPECT_GT(stats.cacheHits, 0u);

    std::string golden = testsupport::fileText(goldenPath());
    std::string roundTripped =
        store::serializeResults(store::loadResults(dir));
    std::vector<std::string> diffs;
    bool same = testsupport::jsonNear(golden, roundTripped, 0.0, diffs);
    for (const auto &diff : diffs)
        ADD_FAILURE() << diff;
    EXPECT_TRUE(same);
    EXPECT_TRUE(testsupport::fileText(dir + "/results.json") ==
                testsupport::fileText(goldenPath()));
}

} // namespace
} // namespace nvmexp
