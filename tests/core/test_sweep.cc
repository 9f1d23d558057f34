#include <gtest/gtest.h>

#include <limits>

#include "../support/fixtures.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

using testsupport::smallSweep;

TEST(Sweep, CharacterizeCrossesCellsCapacitiesTargets)
{
    auto arrays = characterizeSweep(smallSweep());
    EXPECT_EQ(arrays.size(), 2u * 2u * 2u);
}

TEST(Sweep, RunCrossesTraffics)
{
    auto results = runSweep(smallSweep());
    EXPECT_EQ(results.size(), 8u * 2u);
    for (const auto &r : results) {
        EXPECT_GT(r.totalPower, 0.0);
        EXPECT_FALSE(r.traffic->name.empty());
    }
}

TEST(SweepDeath, EmptyConfigsAreFatal)
{
    SweepConfig noCells;
    noCells.traffics = {TrafficPattern::fromCounts("t", 1, 1, 1)};
    EXPECT_EXIT(runSweep(noCells), ::testing::ExitedWithCode(1),
                "no cells");
    SweepConfig noTraffic = smallSweep();
    noTraffic.traffics.clear();
    EXPECT_EXIT(runSweep(noTraffic), ::testing::ExitedWithCode(1),
                "no traffic");
}

TEST(Pareto, KeepsOnlyNonDominatedPoints)
{
    struct P
    {
        double a, b;
    };
    std::vector<P> points = {
        {1, 4}, {2, 2}, {4, 1}, {3, 3}, {5, 5},
    };
    auto front = paretoFront<P>(
        points, [](const P &p) { return p.a; },
        [](const P &p) { return p.b; });
    ASSERT_EQ(front.size(), 3u);
    for (const auto &p : front)
        EXPECT_TRUE((p.a == 1 && p.b == 4) || (p.a == 2 && p.b == 2) ||
                    (p.a == 4 && p.b == 1));
}

TEST(Pareto, SinglePointIsItsOwnFront)
{
    std::vector<double> xs = {3.0};
    auto front = paretoFront<double>(
        xs, [](const double &x) { return x; },
        [](const double &x) { return -x; });
    EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, MatchesBruteForceOnRandomPointsWithTies)
{
    struct P
    {
        double a, b;
        bool operator==(const P &o) const
        {
            return a == o.a && b == o.b;
        }
    };
    auto keyA = [](const P &p) { return p.a; };
    auto keyB = [](const P &p) { return p.b; };

    Rng rng(0xFACADE);
    for (int round = 0; round < 20; ++round) {
        std::vector<P> points;
        for (int i = 0; i < 200; ++i) {
            // Coarse grid so equal keys and exact duplicates occur.
            points.push_back({(double)rng.range(12),
                              (double)rng.range(12)});
        }

        // Reference: the original O(n^2) dominance scan.
        std::vector<P> expected;
        for (const auto &c : points) {
            bool dominated = false;
            for (const auto &o : points) {
                if (o.a <= c.a && o.b <= c.b &&
                    (o.a < c.a || o.b < c.b)) {
                    dominated = true;
                    break;
                }
            }
            if (!dominated)
                expected.push_back(c);
        }

        auto front = paretoFront<P>(points, keyA, keyB);
        ASSERT_EQ(front.size(), expected.size()) << "round " << round;
        for (std::size_t i = 0; i < front.size(); ++i)
            EXPECT_TRUE(front[i] == expected[i])
                << "round " << round << " item " << i;
    }
}

TEST(Pareto, PreservesInputOrderAndDuplicates)
{
    struct P
    {
        double a, b;
    };
    std::vector<P> points = {
        {4, 1}, {2, 2}, {1, 4}, {2, 2}, {3, 3}, {1, 4},
    };
    auto front = paretoFront<P>(
        points, [](const P &p) { return p.a; },
        [](const P &p) { return p.b; });
    // All duplicates of non-dominated points survive, in input order.
    ASSERT_EQ(front.size(), 5u);
    EXPECT_EQ(front[0].a, 4);
    EXPECT_EQ(front[1].a, 2);
    EXPECT_EQ(front[2].a, 1);
    EXPECT_EQ(front[3].a, 2);
    EXPECT_EQ(front[4].a, 1);
}

TEST(Pareto, InfiniteSecondKeyInTheFirstGroupIsKept)
{
    // Nothing has a smaller keyA than the first group, so its
    // minimal-keyB members are on the front even at keyB = +inf (a
    // running minimum seeded with +inf would drop them all).
    struct P
    {
        double a, b;
    };
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<P> points = {{2, inf}, {1, inf}, {1, inf}, {3, 0}};
    auto front = paretoFront<P>(
        points, [](const P &p) { return p.a; },
        [](const P &p) { return p.b; });
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(front[0].a, 1);
    EXPECT_EQ(front[1].a, 1);
    EXPECT_EQ(front[2].a, 3);
}

} // namespace
} // namespace nvmexp
