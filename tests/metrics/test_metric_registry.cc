#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../support/fixtures.hh"
#include "metrics/metric.hh"

namespace nvmexp {
namespace {

using metrics::Direction;
using metrics::Metric;
using metrics::MetricRegistry;

class MetricRegistryTest : public testsupport::QuietTest
{
};

EvalResult
sampleResult()
{
    static const EvalResult result = [] {
        setQuiet(true);
        auto results = runSweep(testsupport::smallSweep());
        setQuiet(false);
        return results.front();
    }();
    return result;
}

TEST_F(MetricRegistryTest, NamesAreSortedAndStable)
{
    auto names = MetricRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    // The vocabulary the issue names must exist.
    for (const char *required :
         {"total_power", "latency_load", "lifetime_years",
          "read_latency", "write_latency", "area_mm2", "read_edp"}) {
        EXPECT_NE(MetricRegistry::instance().find(required), nullptr)
            << required;
    }
}

TEST_F(MetricRegistryTest, AccessorsMatchTheUnderlyingFields)
{
    EvalResult r = sampleResult();
    auto value = [&](const char *name) {
        return metrics::metric(name).eval(r);
    };
    EXPECT_DOUBLE_EQ(value("total_power"), r.totalPower);
    EXPECT_DOUBLE_EQ(value("dynamic_power"), r.dynamicPower);
    EXPECT_DOUBLE_EQ(value("leakage_power"), r.leakagePower);
    EXPECT_DOUBLE_EQ(value("latency_load"), r.latencyLoad);
    EXPECT_DOUBLE_EQ(value("lifetime_sec"), r.lifetimeSec);
    EXPECT_DOUBLE_EQ(value("lifetime_years"), r.lifetimeYears());
    EXPECT_DOUBLE_EQ(value("read_latency"), r.array->readLatency);
    EXPECT_DOUBLE_EQ(value("write_latency"), r.array->writeLatency);
    EXPECT_DOUBLE_EQ(value("area_m2"), r.array->areaM2);
    EXPECT_DOUBLE_EQ(value("area_mm2"), r.array->areaM2 * 1e6);
    EXPECT_DOUBLE_EQ(value("read_edp"),
                     r.array->readLatency * r.array->readEnergy);
    EXPECT_DOUBLE_EQ(value("density_mb_per_mm2"),
                     r.array->densityMbPerMm2());
    EXPECT_DOUBLE_EQ(value("viable"), r.viable() ? 1.0 : 0.0);
}

TEST_F(MetricRegistryTest, ArrayAccessorsAgreeWithEvalAccessors)
{
    EvalResult r = sampleResult();
    auto &registry = MetricRegistry::instance();
    int arrayMetrics = 0;
    for (const auto &name : registry.names()) {
        const Metric &m = *registry.find(name);
        if (!m.hasArrayAccessor())
            continue;
        ++arrayMetrics;
        EXPECT_DOUBLE_EQ(m.array(*r.array), m.eval(r)) << name;
    }
    EXPECT_GE(arrayMetrics, 10);
    // Application-level metrics have no array accessor.
    EXPECT_FALSE(metrics::metric("total_power").hasArrayAccessor());
    EXPECT_FALSE(metrics::metric("latency_load").hasArrayAccessor());
}

TEST_F(MetricRegistryTest, DirectionMetadataFoldsIntoAscending)
{
    EvalResult r = sampleResult();
    const Metric &power = metrics::metric("total_power");
    const Metric &density = metrics::metric("density_mb_per_mm2");
    EXPECT_TRUE(power.minimize());
    EXPECT_FALSE(density.minimize());
    EXPECT_DOUBLE_EQ(power.ascending(power.eval(r)), power.eval(r));
    EXPECT_DOUBLE_EQ(density.ascending(density.eval(r)),
                     -density.eval(r));
}

TEST_F(MetricRegistryTest, UnitsArePresent)
{
    EXPECT_EQ(metrics::metric("total_power").unit, "W");
    EXPECT_EQ(metrics::metric("lifetime_years").unit, "yr");
    EXPECT_EQ(metrics::metric("area_mm2").unit, "mm^2");
    for (const auto &name : MetricRegistry::instance().names()) {
        EXPECT_FALSE(metrics::metric(name).unit.empty()) << name;
        EXPECT_FALSE(metrics::metric(name).description.empty()) << name;
    }
}

TEST_F(MetricRegistryTest, FindReturnsNullOnUnknown)
{
    EXPECT_EQ(MetricRegistry::instance().find("not-a-metric"), nullptr);
}

using MetricRegistryDeathTest = MetricRegistryTest;

TEST_F(MetricRegistryDeathTest, RequireUnknownIsFatalAndListsNames)
{
    EXPECT_EXIT(metrics::metric("warp_factor"),
                ::testing::ExitedWithCode(1),
                "'warp_factor' unknown.*total_power");
    EXPECT_EXIT(MetricRegistry::instance().require("warp_factor",
                                                   "--filter"),
                ::testing::ExitedWithCode(1), "--filter");
}

TEST_F(MetricRegistryDeathTest, DuplicateAndMalformedAddsAreFatal)
{
    Metric dup;
    dup.name = "total_power";
    dup.eval = [](const EvalResult &) { return 0.0; };
    EXPECT_EXIT(MetricRegistry::instance().add(dup),
                ::testing::ExitedWithCode(1), "registered twice");

    Metric unnamed;
    unnamed.eval = [](const EvalResult &) { return 0.0; };
    EXPECT_EXIT(MetricRegistry::instance().add(unnamed),
                ::testing::ExitedWithCode(1), "empty name");

    Metric noAccessor;
    noAccessor.name = "accessorless";
    EXPECT_EXIT(MetricRegistry::instance().add(noAccessor),
                ::testing::ExitedWithCode(1), "missing eval accessor");
}

} // namespace
} // namespace nvmexp
