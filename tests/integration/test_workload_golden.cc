/**
 * @file
 * Golden-file regression for the new scenario generators: a reference
 * sweep whose traffic comes entirely from registry workloads (KV
 * store, WAL, intermittent-wrapped KV) with serialized results
 * committed under tests/data/. Any change to the generators' traffic
 * models — or to the registry expansion path — shows up as a
 * structural diff.
 *
 * To intentionally re-baseline after a deliberate model change:
 *   NVMEXP_REGOLD=1 build/tests/integration_test_workload_golden
 * and commit the rewritten tests/data/golden_workloads.json.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "../support/golden_compare.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

const char *kGoldenRelPath = "tests/data/golden_workloads.json";

std::string
goldenPath()
{
    return std::string(NVMEXP_SOURCE_DIR) + "/" + kGoldenRelPath;
}

/** 2 cells x 1 capacity x 1 target, traffic entirely from workload
 *  specs: 1 KV + 2 WAL + 1 duty-cycled KV = 8 evaluation rows. */
SweepConfig
workloadReferenceSweep()
{
    CellCatalog catalog;
    SweepConfig config;
    config.cells = {catalog.optimistic(CellTech::STT),
                    catalog.pessimistic(CellTech::PCM)};
    config.capacitiesBytes = {4.0 * 1024 * 1024};
    config.targets = {OptTarget::ReadEDP};
    config.workloads = {
        JsonValue::parse(
            R"({"name": "kv-store", "ops_per_sec": 1.5e6,
                "get_fraction": 0.9, "zipf_skew": 0.99,
                "key_count": 2e6, "value_bytes": 256,
                "cache_mib": 8})"),
        JsonValue::parse(
            R"({"name": "wal", "commits_per_sec": 4e4,
                "record_bytes": 128, "group_commit": 8,
                "checkpoint_period_sec": 20, "snapshot_mib": 2})"),
        JsonValue::parse(
            R"({"name": "intermittent", "duty_cycle": 0.2,
                "period_sec": 0.5, "restore_mib": 0.5,
                "mode": "catch-up",
                "inner": {"name": "kv-store", "ops_per_sec": 2e5,
                          "cache_mib": 0}})"),
    };
    config.jobs = 4;
    return config;
}

class WorkloadGolden : public testsupport::QuietTest
{
};

TEST_F(WorkloadGolden, NewWorkloadMetricsMatchTheCommittedReference)
{
    auto results = runSweep(workloadReferenceSweep());
    ASSERT_EQ(results.size(), 2u * 4u);  // cells x patterns
    std::string current = store::serializeResults(results);

    if (std::getenv("NVMEXP_REGOLD")) {
        writeFileAtomically(goldenPath(), current);
        GTEST_SKIP() << "regenerated " << kGoldenRelPath;
    }

    std::string golden = testsupport::fileText(goldenPath());
    std::vector<std::string> diffs;
    // Tolerance 0: generators are deterministic and the store
    // serializes doubles exactly, so any drift is a real change to a
    // traffic model.
    bool same = testsupport::jsonNear(golden, current, 0.0, diffs);
    for (const auto &diff : diffs)
        ADD_FAILURE() << diff;
    EXPECT_TRUE(same)
        << "workload reference sweep diverged from " << kGoldenRelPath
        << "; if intentional, regenerate with NVMEXP_REGOLD=1";
    EXPECT_TRUE(testsupport::fileText(goldenPath()) == current)
        << "serialized workload sweep is not byte-identical to "
        << kGoldenRelPath;
}

TEST_F(WorkloadGolden, WorkloadSweepSurvivesStoreRoundTrip)
{
    if (std::getenv("NVMEXP_REGOLD"))
        GTEST_SKIP() << "regeneration run";

    // Persisted workload-driven results reload bit-identically: the
    // expanded patterns flow through the same serialization the
    // explicit-traffic path uses.
    auto results = runSweep(workloadReferenceSweep());
    std::vector<EvalResult> decoded;
    store::readJson(store::serializeResults(results), "", decoded);
    ASSERT_EQ(decoded.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(store::identical(results[i], decoded[i])) << i;
}

} // namespace
} // namespace nvmexp
