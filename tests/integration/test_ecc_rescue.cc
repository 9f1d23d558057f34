/**
 * End-to-end check of the shipped Sec. V-C reliability study:
 * config/mlc_ecc_rescue_study.json must reproduce the "ECC rescues
 * MLC" claim — at least one MLC configuration violates the
 * uncorrectable-rate budget with ecc "none" but satisfies it under
 * "secded-72-64" — with every reliability metric resolvable through
 * the registry-driven filter/Pareto machinery the dashboard uses.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "../support/fixtures.hh"
#include "core/config.hh"
#include "metrics/metric.hh"
#include "store/result_store.hh"

namespace nvmexp {
namespace {

const char *kBudgetClause = "uncorrectable_word_rate<=1e-2";

class EccRescueStudy : public testsupport::QuietTest
{
  protected:
    static const std::vector<EvalResult> &
    results()
    {
        static const std::vector<EvalResult> rows = [] {
            setQuiet(true);
            ExperimentConfig config = loadExperimentFile(
                std::string(NVMEXP_SOURCE_DIR) +
                "/config/mlc_ecc_rescue_study.json");
            auto out = runSweep(config.sweep);
            setQuiet(false);
            return out;
        }();
        return rows;
    }
};

/** The dashboard's --filter: rows within the uncorrectable budget. */
store::StoreQuery
budgetQuery()
{
    store::StoreQuery query;
    query.constraints.add(kBudgetClause, "rescue test");
    return query;
}

TEST_F(EccRescueStudy, EccRescuesAnOtherwiseTooFaultyMlcConfiguration)
{
    // Per cell: does the budget hold under each swept scheme?
    std::map<std::string, std::map<std::string, bool>> passes;
    for (const auto &row : results())
        passes[row.array->cell.name][row.reliability.scheme] = false;
    for (const auto &row : store::applyQuery(results(), budgetQuery()))
        passes[row.array->cell.name][row.reliability.scheme] = true;

    ASSERT_TRUE(passes.count("RRAM-Opt-MLC2"));
    const auto &rram = passes.at("RRAM-Opt-MLC2");
    // The paper's claim, as data: raw MLC fails, SEC-DED rescues it.
    EXPECT_FALSE(rram.at("none"));
    EXPECT_TRUE(rram.at("secded-72-64"));
    EXPECT_TRUE(rram.at("dec-78-64"));

    // And the counterpoint: small-cell MLC FeFET is beyond rescue.
    const auto &fefet = passes.at("FeFET-Opt-MLC2");
    EXPECT_FALSE(fefet.at("none"));
    EXPECT_FALSE(fefet.at("secded-72-64"));
}

TEST_F(EccRescueStudy, ReliabilityMetricsDriveFilterParetoAndTop)
{
    // Every advertised reliability metric resolves via the registry.
    for (const char *name :
         {"raw_ber", "scrubbed_ber", "uncorrectable_word_rate",
          "uncorrectable_image_rate", "ecc_overhead",
          "effective_capacity_mib", "effective_density_mb_per_mm2"}) {
        const metrics::Metric *m =
            metrics::MetricRegistry::instance().find(name);
        ASSERT_NE(m, nullptr) << name;
        for (const auto &row : results())
            EXPECT_FALSE(std::isnan(m->eval(row))) << name;
    }

    // --filter semantics: the budget keeps a strict, non-empty subset.
    auto kept = store::applyQuery(results(), budgetQuery());
    EXPECT_GT(kept.size(), 0u);
    EXPECT_LT(kept.size(), results().size());

    // Pareto over (uncorrectable rate, effective density) must keep a
    // protected row: "none" maximizes density but loses on the error
    // axis, so the front spans schemes.
    store::StoreQuery pareto;
    pareto.paretoMetrics = {"uncorrectable_word_rate",
                            "effective_density_mb_per_mm2"};
    auto front = store::applyQuery(results(), pareto);
    ASSERT_GT(front.size(), 1u);
    bool hasProtected = false;
    for (const auto &row : front)
        hasProtected |= row.reliability.scheme != "none";
    EXPECT_TRUE(hasProtected);

    // top-k under the minimized word rate starts with the strongest
    // protection of the cleanest cell.
    store::StoreQuery best;
    best.topMetric = "uncorrectable_word_rate";
    best.topK = 1;
    auto top = store::applyQuery(results(), best);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top.front().reliability.scheme, "dec-78-64");
}

TEST_F(EccRescueStudy, ConfigLoaderExpandsTheReliabilityAxis)
{
    ExperimentConfig config = loadExperimentFile(
        std::string(NVMEXP_SOURCE_DIR) +
        "/config/mlc_ecc_rescue_study.json");
    EXPECT_TRUE(config.showReliability);
    ASSERT_EQ(config.sweep.reliability.size(), 3u);
    EXPECT_EQ(config.sweep.reliability[0].ecc, "none");
    EXPECT_EQ(config.sweep.reliability[1].ecc, "secded-72-64");
    EXPECT_EQ(config.sweep.reliability[2].ecc, "dec-78-64");
    for (const auto &spec : config.sweep.reliability)
        EXPECT_EQ(spec.scrubIntervalSec, 86400.0);
    // 4 cells x 1 capacity x 1 target x 1 traffic x 3 specs.
    EXPECT_EQ(results().size(), 12u);
}

} // namespace
} // namespace nvmexp
