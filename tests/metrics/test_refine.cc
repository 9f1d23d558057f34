#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>

#include "../support/fixtures.hh"
#include "metrics/metric.hh"
#include "store/result_store.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

class RefineTest : public testsupport::QuietTest
{
};

const std::vector<EvalResult> &
sweepResults()
{
    static const std::vector<EvalResult> results = [] {
        setQuiet(true);
        auto r = runSweep(testsupport::wideSweep());
        setQuiet(false);
        return r;
    }();
    return results;
}

store::StoreQuery
topQuery(const std::string &metric, std::size_t k)
{
    store::StoreQuery query;
    query.topMetric = metric;
    query.topK = k;
    return query;
}

store::StoreQuery
paretoQuery(std::vector<std::string> metrics)
{
    store::StoreQuery query;
    query.paretoMetrics = std::move(metrics);
    return query;
}

TEST_F(RefineTest, TopOneFoldsDirection)
{
    const auto &results = sweepResults();
    auto lowestPower = store::applyQuery(results, topQuery("total_power", 1));
    ASSERT_EQ(lowestPower.size(), 1u);
    for (const auto &r : results)
        EXPECT_LE(lowestPower[0].totalPower, r.totalPower);

    // Maximize metric: "best" density is the largest.
    auto densest =
        store::applyQuery(results, topQuery("density_mb_per_mm2", 1));
    ASSERT_EQ(densest.size(), 1u);
    for (const auto &r : results)
        EXPECT_GE(densest[0].array->densityMbPerMm2(),
                  r.array->densityMbPerMm2());

    EXPECT_TRUE(store::applyQuery({}, topQuery("total_power", 1)).empty());
}

TEST_F(RefineTest, TopKIsStableAndDirectionAware)
{
    const auto &results = sweepResults();
    auto top = store::applyQuery(results, topQuery("total_power", 5));
    ASSERT_EQ(top.size(), 5u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_LE(top[i - 1].totalPower, top[i].totalPower);

    // Maximize metric: best-first means descending values.
    auto dense =
        store::applyQuery(results, topQuery("density_mb_per_mm2", 3));
    ASSERT_EQ(dense.size(), 3u);
    for (std::size_t i = 1; i < dense.size(); ++i)
        EXPECT_GE(dense[i - 1].array->densityMbPerMm2(),
                  dense[i].array->densityMbPerMm2());

    // k larger than the row count returns everything, still sorted.
    auto all = store::applyQuery(results, topQuery("total_power", 1u << 20));
    EXPECT_EQ(all.size(), results.size());
}

TEST_F(RefineTest, TopKKeepsInputOrderOnTies)
{
    // Duplicate the same row: stable ranking must preserve input
    // order among equal keys, which we can observe via traffic names.
    std::vector<EvalResult> rows;
    const auto &results = sweepResults();
    for (const char *name : {"first", "second"}) {
        TrafficPattern traffic = *results[0].traffic;
        traffic.name = name;
        rows.push_back(results[0]);
        rows.back().traffic =
            std::make_shared<const TrafficPattern>(std::move(traffic));
    }
    auto top = store::applyQuery(rows, topQuery("total_power", 2));
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].traffic->name, "first");
    EXPECT_EQ(top[1].traffic->name, "second");
}

TEST_F(RefineTest, ParetoMatchesTemplateFront)
{
    const auto &results = sweepResults();
    auto named = store::applyQuery(
        results, paretoQuery({"total_power", "latency_load"}));
    auto legacy = paretoFront<EvalResult>(
        results, [](const EvalResult &r) { return r.totalPower; },
        [](const EvalResult &r) { return r.latencyLoad; });
    ASSERT_EQ(named.size(), legacy.size());
    for (std::size_t i = 0; i < named.size(); ++i) {
        EXPECT_DOUBLE_EQ(named[i].totalPower,
                         legacy[i].totalPower);
        EXPECT_EQ(named[i].traffic->name, legacy[i].traffic->name);
    }

    // 3-D: every survivor is non-dominated under folded directions.
    auto front3 = store::applyQuery(
        results,
        paretoQuery({"total_power", "latency_load", "read_latency"}));
    EXPECT_FALSE(front3.empty());
    EXPECT_GE(front3.size(), named.size());
}

TEST_F(RefineTest, ParetoDropsNanRows)
{
    // A registered metric that is NaN for one marked row: NaN keys
    // can neither dominate nor be dominated, so the row must be
    // dropped from the front.
    static const bool registered = [] {
        metrics::Metric m;
        m.name = "test_nan_power";
        m.unit = "W";
        m.description = "total_power, NaN for rows named 'nan-row'";
        m.eval = [](const EvalResult &r) {
            return r.traffic->name == "nan-row"
                ? std::numeric_limits<double>::quiet_NaN()
                : r.totalPower;
        };
        metrics::MetricRegistry::instance().add(std::move(m));
        return true;
    }();
    ASSERT_TRUE(registered);

    auto rows = sweepResults();
    TrafficPattern marked = *rows[0].traffic;
    marked.name = "nan-row";
    rows[0].traffic = std::make_shared<const TrafficPattern>(marked);
    auto front = store::applyQuery(
        rows,
        paretoQuery({"test_nan_power", "latency_load", "read_latency"}));
    EXPECT_FALSE(front.empty());
    for (const auto &r : front)
        EXPECT_NE(r.traffic->name, "nan-row");

    // NaN-free rows produce the same front with or without the guard.
    const auto &clean = sweepResults();
    auto direct = store::applyQuery(
        clean, paretoQuery({"total_power", "latency_load"}));
    auto viaNanAware = store::applyQuery(
        clean, paretoQuery({"test_nan_power", "latency_load"}));
    EXPECT_EQ(direct.size(), viaNanAware.size());
}

using RefineDeathTest = RefineTest;

TEST_F(RefineDeathTest, UnknownMetricsAreFatalWithContext)
{
    EXPECT_EXIT(store::applyQuery(sweepResults(), topQuery("warp", 3)),
                ::testing::ExitedWithCode(1), "store query.*'warp'");
    EXPECT_EXIT(store::applyQuery(sweepResults(),
                                  paretoQuery({"total_power", "warp"})),
                ::testing::ExitedWithCode(1), "store query.*'warp'");
    // k=0 is rejected on the programmatic path too (the JSON/CLI
    // parsers already refuse it), never silently returning {}.
    EXPECT_EXIT(store::applyQuery(sweepResults(), topQuery("total_power", 0)),
                ::testing::ExitedWithCode(1), "positive count");
}

// The naive reference for store::selectRows. The offline query and the
// serve index both run selectRows, so their differential tests only
// pin the column sources; this reference pins the stages themselves,
// written the slow, obvious way over synthetic columns.

/** Metrics the random row sets fill: two minimized, two maximized. */
const char *const kRefMetrics[] = {"total_power", "read_latency",
                                   "lifetime_years", "density_mb_per_mm2"};

using Columns = std::map<std::string, std::vector<double>>;

/** A row value from a small set, so ties are common; NaN and the
 *  infinities included. */
double
refValue(Rng &rng)
{
    const double values[] = {
        0.0, -0.0, 1.0, 2.0, 3.0, 5.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    return values[rng.range(std::size(values))];
}

/** `rows` random rows; about one in five copies an earlier row
 *  exactly. */
Columns
randomColumns(Rng &rng, std::size_t rows)
{
    Columns columns;
    for (const char *name : kRefMetrics)
        columns[name].reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
        bool duplicate = row > 0 && rng.bernoulli(0.2);
        std::size_t source = duplicate ? rng.range(row) : 0;
        for (const char *name : kRefMetrics) {
            auto &column = columns[name];
            column.push_back(duplicate ? column[source] : refValue(rng));
        }
    }
    return columns;
}

double
folded(const std::string &name, double value)
{
    return metrics::metric(name).minimize() ? value : -value;
}

bool
referenceHolds(metrics::ConstraintOp op, double value, double bound)
{
    switch (op) {
      case metrics::ConstraintOp::LT: return value < bound;
      case metrics::ConstraintOp::LE: return value <= bound;
      case metrics::ConstraintOp::GT: return value > bound;
      case metrics::ConstraintOp::GE: return value >= bound;
      case metrics::ConstraintOp::EQ: return value == bound;
      case metrics::ConstraintOp::NE: return value != bound;
    }
    return false;
}

/** Constraints -> Pareto -> top-k, each stage the obvious way. */
std::vector<std::size_t>
referenceRows(const store::StoreQuery &query, const Columns &columns,
              std::size_t rows)
{
    std::vector<std::size_t> kept;
    for (std::size_t row = 0; row < rows; ++row) {
        bool pass = true;
        for (const auto &clause : query.constraints.clauses()) {
            pass = pass && referenceHolds(clause.op,
                                          columns.at(clause.metric)[row],
                                          clause.bound);
        }
        if (pass)
            kept.push_back(row);
    }

    if (!query.paretoMetrics.empty()) {
        auto key = [&](std::size_t row, const std::string &name) {
            return folded(name, columns.at(name)[row]);
        };
        std::vector<std::size_t> ordered;
        for (std::size_t row : kept) {
            bool anyNan = false;
            for (const auto &name : query.paretoMetrics)
                anyNan = anyNan || std::isnan(columns.at(name)[row]);
            if (!anyNan)
                ordered.push_back(row);
        }
        std::vector<std::size_t> front;
        for (std::size_t row : ordered) {
            bool dominated = false;
            for (std::size_t other : ordered) {
                bool allLe = true;
                bool oneLt = false;
                for (const auto &name : query.paretoMetrics) {
                    allLe = allLe && key(other, name) <= key(row, name);
                    oneLt = oneLt || key(other, name) < key(row, name);
                }
                dominated = dominated || (allLe && oneLt);
            }
            if (!dominated)
                front.push_back(row);
        }
        kept = front;
    }

    if (!query.topMetric.empty()) {
        const auto &column = columns.at(query.topMetric);
        std::vector<std::size_t> ranked;
        for (std::size_t row : kept)
            if (!std::isnan(column[row]))
                ranked.push_back(row);
        std::stable_sort(ranked.begin(), ranked.end(),
                         [&](std::size_t lhs, std::size_t rhs) {
                             return folded(query.topMetric, column[lhs]) <
                                 folded(query.topMetric, column[rhs]);
                         });
        if (ranked.size() > query.topK)
            ranked.resize(query.topK);
        kept = ranked;
    }
    return kept;
}

/** A random query over kRefMetrics: each stage present about half the
 *  time, Pareto over 1-4 metrics, bounds from the value set. */
store::StoreQuery
randomQuery(Rng &rng, std::size_t rows)
{
    const char *const ops[] = {"<", "<=", ">", ">=", "==", "!="};
    const char *const bounds[] = {"0", "1", "2", "3", "5", "Infinity",
                                  "-Infinity"};
    store::StoreQuery query;
    if (rng.bernoulli(0.6)) {
        for (std::uint64_t n = 1 + rng.range(3); n > 0; --n) {
            query.constraints.add(
                std::string(kRefMetrics[rng.range(std::size(kRefMetrics))]) +
                ops[rng.range(std::size(ops))] +
                bounds[rng.range(std::size(bounds))]);
        }
    }
    if (rng.bernoulli(0.6)) {
        for (std::uint64_t n = 1 + rng.range(4); n > 0; --n) {
            query.paretoMetrics.push_back(
                kRefMetrics[rng.range(std::size(kRefMetrics))]);
        }
    }
    if (rng.bernoulli(0.6)) {
        query.topMetric = kRefMetrics[rng.range(std::size(kRefMetrics))];
        query.topK = 1 + rng.range(rows + 2);
    }
    return query;
}

/** `query` as query.json writes it, compact. */
std::string
shown(const store::StoreQuery &query)
{
    std::string out;
    JsonWriter w(out);
    store::writeJson(w, query);
    return out;
}

TEST_F(RefineTest, SelectRowsMatchesNaiveReference)
{
    Rng rng(0x5E1EC7);
    std::size_t nonEmpty = 0;
    for (int round = 0; round < 400; ++round) {
        std::size_t rows = rng.range(120);
        Columns columns = randomColumns(rng, rows);
        store::StoreQuery query = randomQuery(rng, rows);
        auto source = [&](const metrics::Metric &m) -> const auto & {
            return columns.at(m.name);
        };
        auto got = store::selectRows(query, rows, source);
        EXPECT_EQ(got, referenceRows(query, columns, rows))
            << "round " << round << ": "
            << shown(query);
        nonEmpty += !got.empty();
    }
    EXPECT_GT(nonEmpty, 200u);
}

TEST_F(RefineTest, SelectRowsMatchesReferenceOnEachStageAlone)
{
    // One stage at a time over large, tie-heavy row sets: a top-k that
    // is not stable, a Pareto that keeps a NaN row, or a filter that
    // skips a clause shows here on its own.
    Rng rng(0x57A6E5);
    for (int round = 0; round < 60; ++round) {
        std::size_t rows = 100 + rng.range(200);
        Columns columns = randomColumns(rng, rows);
        store::StoreQuery query;
        switch (round % 3) {
          case 0:
            query.constraints.add("total_power<=3");
            query.constraints.add("lifetime_years>0");
            query.constraints.add("density_mb_per_mm2!=2");
            break;
          case 1:
            query.paretoMetrics = {"total_power", "lifetime_years"};
            if (rng.bernoulli(0.5))
                query.paretoMetrics.push_back("read_latency");
            break;
          default:
            query.topMetric = rng.bernoulli(0.5) ? "total_power"
                                                 : "lifetime_years";
            query.topK = rows / 2;
            break;
        }
        auto source = [&](const metrics::Metric &m) -> const auto & {
            return columns.at(m.name);
        };
        EXPECT_EQ(store::selectRows(query, rows, source),
                  referenceRows(query, columns, rows))
            << "round " << round << ": " << shown(query);
    }
}

} // namespace
} // namespace nvmexp
