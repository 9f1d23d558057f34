#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "core/parallel_sweep.hh"
#include "metrics/metric.hh"
#include "serve/index.hh"
#include "store/result_store.hh"

namespace nvmexp {
namespace {

using serve::StoreIndex;

/** One wide sweep, shared across the suite (rebuilt per process). */
const std::vector<EvalResult> &
sweepRows()
{
    static const std::vector<EvalResult> rows = [] {
        setQuiet(true);
        auto r = runSweep(testsupport::wideSweep());
        setQuiet(false);
        return r;
    }();
    return rows;
}

class StoreIndexTest : public testsupport::QuietTest
{
  protected:
    /** Byte-level differential: the columnar path must serialize
     *  exactly like the offline applyQuery path. */
    void
    expectIdentical(const std::vector<EvalResult> &rows,
                    const store::StoreQuery &query,
                    const std::string &label)
    {
        auto index = StoreIndex::fromResults(rows, "test");
        EXPECT_EQ(store::serializeResults(index->query(query)),
                  store::serializeResults(store::applyQuery(rows, query)))
            << label;
    }

    std::string
    storeDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_index_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() +
            "_" + name;
        std::filesystem::remove_all(dir);
        return dir;
    }
};

TEST_F(StoreIndexTest, EmptyQueryReturnsEveryRowInOrder)
{
    store::StoreQuery query;
    expectIdentical(sweepRows(), query, "empty");
}

TEST_F(StoreIndexTest, ConstraintFilteringMatchesOfflinePath)
{
    store::StoreQuery query;
    query.constraints.add("latency_load<=1.0");
    query.constraints.add("total_power<0.2");
    expectIdentical(sweepRows(), query, "constraints");
}

TEST_F(StoreIndexTest, ParetoFrontsMatchForTwoAndMoreDimensions)
{
    store::StoreQuery two;
    two.paretoMetrics = {"total_power", "read_latency"};
    expectIdentical(sweepRows(), two, "pareto-2d");

    store::StoreQuery three;
    three.paretoMetrics = {"total_power", "read_latency", "area_mm2"};
    expectIdentical(sweepRows(), three, "pareto-3d");

    // A maximize-direction metric exercises the negation fold.
    store::StoreQuery folded;
    folded.paretoMetrics = {"total_power", "lifetime_years"};
    expectIdentical(sweepRows(), folded, "pareto-maximize");
}

TEST_F(StoreIndexTest, TopKMatchesIncludingDirectionFold)
{
    for (const char *metric : {"total_power", "lifetime_years"}) {
        for (std::size_t k : {1u, 3u, 1000u}) {
            store::StoreQuery query;
            query.topMetric = metric;
            query.topK = k;
            expectIdentical(sweepRows(), query,
                            std::string(metric) + " k=" +
                                std::to_string(k));
        }
    }
}

TEST_F(StoreIndexTest, FullPipelineMatches)
{
    store::StoreQuery query;
    query.constraints.add("latency_load<=1.5");
    query.paretoMetrics = {"total_power", "read_latency"};
    query.topMetric = "total_power";
    query.topK = 4;
    expectIdentical(sweepRows(), query, "pipeline");
}

TEST_F(StoreIndexTest, NanRowsDropAndTieDuplicatesSurviveIdentically)
{
    // Inject NaN power into a few rows and duplicate one row so the
    // NaN-drop and exact-duplicate-tie rules both trigger.
    std::vector<EvalResult> rows = sweepRows();
    rows[1].totalPower = std::numeric_limits<double>::quiet_NaN();
    rows[5].totalPower = std::numeric_limits<double>::quiet_NaN();
    rows.push_back(rows[2]);
    rows.push_back(rows[0]);

    store::StoreQuery pareto;
    pareto.paretoMetrics = {"total_power", "read_latency"};
    expectIdentical(rows, pareto, "nan-pareto");

    store::StoreQuery top;
    top.topMetric = "total_power";
    top.topK = 6;
    expectIdentical(rows, top, "nan-top");

    store::StoreQuery constrained;
    constrained.constraints.add("total_power<1.0");
    expectIdentical(rows, constrained, "nan-constraint");
}

TEST_F(StoreIndexTest, RandomizedQueriesMatchByteForByte)
{
    const auto &rows = sweepRows();
    auto index = StoreIndex::fromResults(rows, "test");

    // Deterministically seeded: any mismatch reproduces.
    std::mt19937 rng(20260808u);
    std::vector<std::string> names =
        metrics::MetricRegistry::instance().names();
    std::uniform_int_distribution<std::size_t> pickName(
        0, names.size() - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<std::size_t> pickK(1, rows.size());
    const char *ops[] = {"<", "<=", ">", ">=", "!="};
    std::uniform_int_distribution<std::size_t> pickOp(0, 4);

    for (int trial = 0; trial < 50; ++trial) {
        store::StoreQuery query;
        if (coin(rng)) {
            // Bound drawn from the metric's actual value range so the
            // filter is neither trivially empty nor trivially full.
            const std::string &name = names[pickName(rng)];
            const metrics::Metric &m =
                metrics::MetricRegistry::instance().require(name);
            double value = m.eval(rows[pickK(rng) - 1]);
            if (std::isfinite(value)) {
                query.constraints.add(name + ops[pickOp(rng)] +
                                      JsonValue::formatNumber(value));
            }
        }
        if (coin(rng)) {
            std::size_t dims = 2 + (std::size_t)coin(rng);
            for (std::size_t d = 0; d < dims; ++d)
                query.paretoMetrics.push_back(names[pickName(rng)]);
        }
        if (coin(rng)) {
            query.topMetric = names[pickName(rng)];
            query.topK = pickK(rng);
        }
        EXPECT_EQ(store::serializeResults(index->query(query)),
                  store::serializeResults(
                      store::applyQuery(rows, query)))
            << "trial " << trial;
    }
}

TEST_F(StoreIndexTest, LoadMatchesQueryStoreAndReadsFingerprint)
{
    SweepConfig config = testsupport::smallSweep();
    config.outDir = storeDir("load");
    runSweep(config);

    std::string fingerprint;
    ASSERT_TRUE(serve::readStoreFingerprint(config.outDir, fingerprint));
    EXPECT_FALSE(fingerprint.empty());

    std::string error;
    auto index = StoreIndex::load(config.outDir, error);
    ASSERT_TRUE(index) << error;
    EXPECT_EQ(index->fingerprint(), fingerprint);
    EXPECT_EQ(index->rows(), 16u);

    store::StoreQuery query;
    query.paretoMetrics = {"total_power", "read_latency"};
    EXPECT_EQ(store::serializeResults(index->query(query)),
              store::serializeResults(
                  store::queryStore(config.outDir, query)));
}

TEST_F(StoreIndexTest, LoadRejectsMissingOrCorruptStores)
{
    std::string error;
    EXPECT_EQ(StoreIndex::load(storeDir("absent"), error), nullptr);
    EXPECT_NE(error.find("checkpoint.jsonl"), std::string::npos);

    // A store whose results.json is torn mid-write must be rejected,
    // not half-served.
    SweepConfig config = testsupport::smallSweep();
    config.outDir = storeDir("corrupt");
    runSweep(config);
    {
        std::ofstream out(config.outDir + "/results.json",
                          std::ios::trunc);
        out << "{\"format\": 2, \"results\": [";
    }
    EXPECT_EQ(StoreIndex::load(config.outDir, error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST_F(StoreIndexTest, UnknownMetricIsFatalWithStoreQueryContext)
{
    auto index = StoreIndex::fromResults(sweepRows(), "test");
    store::StoreQuery query;
    query.topMetric = "warp_factor";
    query.topK = 2;
    ScopedFatalThrows guard;
    try {
        index->query(query);
        FAIL() << "unknown metric must be fatal";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("store query"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("warp_factor"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace nvmexp
