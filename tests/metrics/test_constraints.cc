#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>
#include <map>

#include "../support/fixtures.hh"
#include "metrics/constraints.hh"
#include "store/result_store.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

using metrics::ConstraintClause;
using metrics::ConstraintOp;
using metrics::ConstraintSet;

class ConstraintsTest : public testsupport::QuietTest
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

TEST_F(ConstraintsTest, ParsesEveryOperator)
{
    struct Case
    {
        const char *text;
        ConstraintOp op;
        double bound;
    };
    const Case cases[] = {
        {"total_power<0.5", ConstraintOp::LT, 0.5},
        {"total_power<=0.5", ConstraintOp::LE, 0.5},
        {"lifetime_years>3", ConstraintOp::GT, 3.0},
        {"lifetime_years>=3", ConstraintOp::GE, 3.0},
        {"viable==1", ConstraintOp::EQ, 1.0},
        {"viable!=0", ConstraintOp::NE, 0.0},
    };
    for (const auto &c : cases) {
        ConstraintClause clause = ConstraintClause::parse(c.text);
        EXPECT_EQ(clause.op, c.op) << c.text;
        EXPECT_DOUBLE_EQ(clause.bound, c.bound) << c.text;
        EXPECT_EQ(clause.text(), c.text);
    }
}

TEST_F(ConstraintsTest, ParseToleratesWhitespaceAndScientificBounds)
{
    ConstraintClause clause =
        ConstraintClause::parse("  read_latency <= 5e-9 ");
    EXPECT_EQ(clause.metric, "read_latency");
    EXPECT_EQ(clause.op, ConstraintOp::LE);
    EXPECT_DOUBLE_EQ(clause.bound, 5e-9);

    // Infinity bounds are legal (e.g. unlimited-endurance selection).
    ConstraintClause inf =
        ConstraintClause::parse("lifetime_sec>=Infinity");
    EXPECT_TRUE(std::isinf(inf.bound));
}

TEST_F(ConstraintsTest, HoldsAppliesIeeeComparisons)
{
    ConstraintClause le{"total_power", ConstraintOp::LE, 1.0};
    EXPECT_TRUE(le.holds(1.0));
    EXPECT_TRUE(le.holds(0.5));
    EXPECT_FALSE(le.holds(1.5));
    // NaN metric values fail every clause except !=.
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(le.holds(nan));
    ConstraintClause ne{"total_power", ConstraintOp::NE, 1.0};
    EXPECT_TRUE(ne.holds(nan));
}

/** Indices of the rows of `results` that `set` keeps, through the
 *  refine engine. */
std::vector<std::size_t>
keptRows(const ConstraintSet &set, const std::vector<EvalResult> &results)
{
    store::StoreQuery query;
    query.constraints = set;
    std::map<std::string, std::vector<double>> columns;
    auto column = [&](const metrics::Metric &m) -> const auto & {
        auto &values = columns[m.name];
        if (values.empty()) {
            for (const auto &r : results)
                values.push_back(m.eval(r));
        }
        return values;
    };
    return store::selectRows(query, results.size(), column);
}

TEST_F(ConstraintsTest, EmptySetKeepsEveryRow)
{
    ConstraintSet empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(keptRows(empty, sweepResults()).size(),
              sweepResults().size());
}

TEST_F(ConstraintsTest, FilterMatchesPerRowClauseChecks)
{
    ConstraintSet set;
    set.add("latency_load<=1.0");
    set.add("lifetime_years>=1");
    std::vector<std::size_t> expected;
    for (std::size_t row = 0; row < sweepResults().size(); ++row) {
        bool pass = true;
        for (const auto &clause : set.clauses()) {
            pass = pass && clause.holds(metrics::metric(clause.metric)
                                            .eval(sweepResults()[row]));
        }
        if (pass)
            expected.push_back(row);
    }
    auto kept = keptRows(set, sweepResults());
    EXPECT_EQ(kept, expected);
    EXPECT_LT(kept.size(), sweepResults().size());
    EXPECT_FALSE(kept.empty());
}

/** Bounds over the raw EvalResult fields the dashboard filters most
 *  often on; a bound <= 0 (or requireBandwidth false) is unset. */
struct FieldBounds
{
    double maxLatencyLoad = -1.0;
    double maxPowerWatts = -1.0;
    double maxAreaM2 = -1.0;
    double minLifetimeSec = -1.0;
    double maxReadLatency = -1.0;
    double maxWriteLatency = -1.0;
    bool requireBandwidth = false;
};

/** Hand-written comparisons against the raw fields: the reference a
 *  clause set over the same metrics must reproduce exactly. */
bool
referenceSatisfies(const EvalResult &result, const FieldBounds &bounds)
{
    if (bounds.maxLatencyLoad > 0.0 &&
        result.latencyLoad > bounds.maxLatencyLoad)
        return false;
    if (bounds.maxPowerWatts > 0.0 &&
        result.totalPower > bounds.maxPowerWatts)
        return false;
    if (bounds.maxAreaM2 > 0.0 && result.array->areaM2 > bounds.maxAreaM2)
        return false;
    if (bounds.minLifetimeSec > 0.0 &&
        result.lifetimeSec < bounds.minLifetimeSec)
        return false;
    if (bounds.maxReadLatency > 0.0 &&
        result.array->readLatency > bounds.maxReadLatency)
        return false;
    if (bounds.maxWriteLatency > 0.0 &&
        result.array->writeLatency > bounds.maxWriteLatency)
        return false;
    if (bounds.requireBandwidth &&
        (!result.meetsReadBandwidth || !result.meetsWriteBandwidth))
        return false;
    return true;
}

TEST_F(ConstraintsTest, ClauseSetsMatchHandWrittenFieldComparisons)
{
    const auto &results = sweepResults();
    Rng rng(0xC0415);
    for (int round = 0; round < 50; ++round) {
        FieldBounds bounds;
        bounds.maxLatencyLoad = rng.uniform() < 0.3
            ? -1.0 : rng.uniform() * 2.0;
        bounds.maxPowerWatts = rng.uniform() < 0.3
            ? -1.0 : rng.uniform() * 0.5;
        bounds.maxAreaM2 = rng.uniform() < 0.5
            ? -1.0 : rng.uniform() * 1e-5;
        bounds.minLifetimeSec = rng.uniform() < 0.5
            ? -1.0 : rng.uniform() * 10.0 * 365.0 * 86400.0;
        bounds.maxReadLatency = rng.uniform() < 0.5
            ? -1.0 : rng.uniform() * 100e-9;
        bounds.maxWriteLatency = rng.uniform() < 0.5
            ? -1.0 : rng.uniform() * 500e-9;
        bounds.requireBandwidth = rng.uniform() < 0.5;

        // One clause per set bound, over the metric reading that
        // field.
        ConstraintSet clauses;
        const std::pair<const char *, double> ceilings[] = {
            {"latency_load", bounds.maxLatencyLoad},
            {"total_power", bounds.maxPowerWatts},
            {"area_m2", bounds.maxAreaM2},
            {"read_latency", bounds.maxReadLatency},
            {"write_latency", bounds.maxWriteLatency},
        };
        for (const auto &[metric, bound] : ceilings) {
            if (bound > 0.0)
                clauses.add({metric, ConstraintOp::LE, bound});
        }
        if (bounds.minLifetimeSec > 0.0) {
            clauses.add({"lifetime_sec", ConstraintOp::GE,
                         bounds.minLifetimeSec});
        }
        if (bounds.requireBandwidth) {
            clauses.add("meets_read_bw>=1");
            clauses.add("meets_write_bw>=1");
        }

        std::vector<std::size_t> expected;
        for (std::size_t row = 0; row < results.size(); ++row)
            if (referenceSatisfies(results[row], bounds))
                expected.push_back(row);
        EXPECT_EQ(keptRows(clauses, results), expected)
            << "round " << round;
    }
}

/** A query holding `clauses`, as query.json writes it. */
std::string
written(const ConstraintSet &clauses)
{
    store::StoreQuery query;
    query.constraints = clauses;
    std::string out;
    JsonWriter w(out);
    store::writeJson(w, query);
    return out;
}

TEST_F(ConstraintsTest, JsonRoundTripIsLossless)
{
    ConstraintSet set;
    set.add("total_power<0.5");
    set.add(ConstraintClause{"lifetime_sec", ConstraintOp::GE,
                             3.0 * 365.0 * 86400.0});
    std::string text = written(set);
    ConstraintSet reloaded =
        store::StoreQuery::fromJson(JsonValue::parse(text)).constraints;
    EXPECT_EQ(written(reloaded), text);
    ASSERT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.clauses()[0].text(), "total_power<0.5");

    // String entries are accepted alongside object entries.
    store::StoreQuery fromStrings = store::StoreQuery::fromJson(
        JsonValue::parse(R"({"constraints": ["total_power<0.5",
            {"metric": "viable", "op": "==", "bound": 1}]})"));
    EXPECT_EQ(fromStrings.constraints.size(), 2u);
}

using ConstraintsDeathTest = ConstraintsTest;

TEST_F(ConstraintsDeathTest, UnknownMetricIsFatalWithContext)
{
    EXPECT_EXIT(ConstraintClause::parse("warp_factor<0.5", "--filter"),
                ::testing::ExitedWithCode(1),
                "--filter.*'warp_factor' unknown");
}

TEST_F(ConstraintsDeathTest, BadOperatorIsFatal)
{
    EXPECT_EXIT(metrics::constraintOpFromName("=<"),
                ::testing::ExitedWithCode(1), "operator '=<' unknown");
    EXPECT_EXIT(store::StoreQuery::fromJson(JsonValue::parse(
                    R"({"constraints": [{"metric": "total_power",
                        "op": "~", "bound": 1}]})")),
                ::testing::ExitedWithCode(1),
                "constraints\\[0\\]\\.op: .*operator '~' unknown");
}

TEST_F(ConstraintsDeathTest, MalformedClausesAreFatal)
{
    EXPECT_EXIT(ConstraintClause::parse("total_power"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(ConstraintClause::parse("<0.5"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(ConstraintClause::parse(""),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST_F(ConstraintsDeathTest, MalformedBoundsAreFatal)
{
    EXPECT_EXIT(ConstraintClause::parse("total_power<abc"),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(ConstraintClause::parse("total_power<"),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(ConstraintClause::parse("total_power<0.5x"),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(ConstraintClause::parse("total_power<NaN"),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(store::StoreQuery::fromJson(JsonValue::parse(
                    R"({"constraints": [{"metric": "total_power",
                        "op": "<", "bound": "high"}]})")),
                ::testing::ExitedWithCode(1),
                "constraints\\[0\\]\\.bound: must be a number");
}

/** RAII LC_NUMERIC override restoring the previous locale. */
class ScopedNumericLocale
{
  public:
    explicit ScopedNumericLocale(const char *name)
    {
        const char *current = std::setlocale(LC_NUMERIC, nullptr);
        saved_ = current ? current : "C";
        active_ = std::setlocale(LC_NUMERIC, name) != nullptr;
    }

    ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }

    bool active() const { return active_; }

  private:
    std::string saved_;
    bool active_ = false;
};

TEST_F(ConstraintsTest, BoundParseIsLocaleIndependent)
{
    // Under a comma-decimal LC_NUMERIC, strtod would stop "0.5" at the
    // '.' (misparsing the bound as 0) and happily accept "0,5". The
    // shared JSON number parse must do neither, whatever the locale.
    ScopedNumericLocale locale("de_DE.UTF-8");
    if (!locale.active()) {
        GTEST_SKIP()
            << "no comma-decimal locale installed; cannot exercise "
               "the LC_NUMERIC-sensitive path";
    }
    ConstraintClause clause = ConstraintClause::parse("total_power<0.5");
    EXPECT_EQ(clause.bound, 0.5);
    EXPECT_EQ(clause.text(), "total_power<0.5");

    ScopedFatalThrows guard;
    EXPECT_THROW(ConstraintClause::parse("total_power<0,5"),
                 FatalError);
}

} // namespace
} // namespace nvmexp
