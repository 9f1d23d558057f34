#include <gtest/gtest.h>

#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "metrics/constraints.hh"
#include "store/result_store.hh"

namespace nvmexp {
namespace {

using metrics::ConstraintOp;
using metrics::ConstraintSet;

/** The rows of `rows` that pass every clause of `set`. */
std::vector<EvalResult>
filtered(const ConstraintSet &set, const std::vector<EvalResult> &rows)
{
    store::StoreQuery query;
    query.constraints = set;
    return store::applyQuery(rows, query);
}

/** Whether `r` passes every clause of `set`. */
bool
passes(const ConstraintSet &set, const EvalResult &r)
{
    return !filtered(set, {r}).empty();
}

EvalResult
makeResult()
{
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 2.0 * 1024 * 1024;
    ArrayDesigner designer(catalog.optimistic(CellTech::STT), config);
    ArrayResult array = designer.optimize(OptTarget::ReadEDP);
    auto traffic = TrafficPattern::fromByteRates("t", 2e9, 2e7, 512);
    return evaluate(array, traffic);
}

/** A latency-load ceiling plus the bandwidth requirement. */
ConstraintSet
withLoadCeiling(double maxLatencyLoad)
{
    ConstraintSet set;
    set.add({"latency_load", ConstraintOp::LE, maxLatencyLoad});
    set.add("meets_read_bw>=1");
    set.add("meets_write_bw>=1");
    return set;
}

/** The dashboard's usual baseline (load <= 1, bandwidth met) plus one
 *  more clause. */
ConstraintSet
baselinePlus(const std::string &metric, ConstraintOp op, double bound)
{
    ConstraintSet set = withLoadCeiling(1.0);
    set.add({metric, op, bound});
    return set;
}

TEST(Filters, UnconstrainedPasses)
{
    EvalResult r = makeResult();
    EXPECT_TRUE(passes(withLoadCeiling(1.0), r));
}

TEST(Filters, PowerBudget)
{
    EvalResult r = makeResult();
    EXPECT_FALSE(passes(baselinePlus("total_power", ConstraintOp::LE,
                                     r.totalPower / 2.0),
                        r));
    EXPECT_TRUE(passes(baselinePlus("total_power", ConstraintOp::LE,
                                    r.totalPower * 2.0),
                       r));
}

TEST(Filters, AreaBudget)
{
    EvalResult r = makeResult();
    EXPECT_FALSE(passes(baselinePlus("area_m2", ConstraintOp::LE,
                                     r.array->areaM2 * 0.5),
                        r));
}

TEST(Filters, LifetimeFloor)
{
    EvalResult r = makeResult();
    EXPECT_FALSE(passes(baselinePlus("lifetime_sec", ConstraintOp::GE,
                                     r.lifetimeSec * 2.0),
                        r));
    EXPECT_TRUE(passes(baselinePlus("lifetime_sec", ConstraintOp::GE,
                                    r.lifetimeSec / 2.0),
                       r));
}

TEST(Filters, LatencyCeilings)
{
    EvalResult r = makeResult();
    EXPECT_FALSE(passes(baselinePlus("read_latency", ConstraintOp::LE,
                                     r.array->readLatency / 2.0),
                        r));
    EXPECT_FALSE(passes(baselinePlus("write_latency", ConstraintOp::LE,
                                     r.array->writeLatency / 2.0),
                        r));
}

TEST(Filters, LatencyLoadCeiling)
{
    EvalResult r = makeResult();
    EXPECT_FALSE(passes(withLoadCeiling(r.latencyLoad / 2.0), r));
}

TEST(Filters, BandwidthRequirementToggle)
{
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 2.0 * 1024 * 1024;
    ArrayDesigner designer(catalog.pessimistic(CellTech::FeFET),
                           config);
    ArrayResult slow = designer.optimize(OptTarget::ReadEDP);
    auto heavy = TrafficPattern::fromByteRates(
        "w", 1e9, slow.writeBandwidth * 4.0, 512);
    EvalResult r = evaluate(slow, heavy);
    ASSERT_FALSE(r.meetsWriteBandwidth);
    // No load ceiling: only the bandwidth clauses can reject the row.
    ConstraintSet bandwidth;
    bandwidth.add("meets_read_bw>=1");
    bandwidth.add("meets_write_bw>=1");
    EXPECT_FALSE(passes(bandwidth, r));
    EXPECT_TRUE(passes(ConstraintSet(), r));
}

TEST(Filters, FilterResultsKeepsOrder)
{
    EvalResult r = makeResult();
    std::vector<EvalResult> all = {r, r, r};
    EXPECT_EQ(filtered(withLoadCeiling(1.0), all).size(), 3u);
    EXPECT_TRUE(filtered(baselinePlus("total_power", ConstraintOp::LE,
                                      1e-12),
                         all)
                    .empty());
}

} // namespace
} // namespace nvmexp
