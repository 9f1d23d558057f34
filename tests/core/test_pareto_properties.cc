#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "../support/fixtures.hh"
#include "core/sweep.hh"
#include "store/result_store.hh"
#include "store/serialize.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

struct Point
{
    double a = 0.0;
    double b = 0.0;
    int id = 0;
};

const std::function<double(const Point &)> keyA =
    [](const Point &p) { return p.a; };
const std::function<double(const Point &)> keyB =
    [](const Point &p) { return p.b; };

/** Random sets with deliberate duplicate coordinates: a small value
 *  grid makes ties and exact-duplicate points common. */
std::vector<Point>
randomPoints(Rng &rng, int count)
{
    std::vector<Point> points;
    points.reserve(count);
    for (int i = 0; i < count; ++i) {
        Point p;
        p.a = (double)rng.range(8);
        p.b = (double)rng.range(8);
        p.id = i;
        points.push_back(p);
    }
    return points;
}

std::multiset<int>
ids(const std::vector<Point> &points)
{
    std::multiset<int> out;
    for (const auto &p : points)
        out.insert(p.id);
    return out;
}

bool
dominates(const Point &x, const Point &y)
{
    return (x.a <= y.a && x.b < y.b) || (x.a < y.a && x.b <= y.b);
}

TEST(ParetoProperties, Idempotent)
{
    Rng rng(1);
    for (int trial = 0; trial < 100; ++trial) {
        auto points = randomPoints(rng, 1 + (int)rng.range(60));
        auto front = paretoFront<Point>(points, keyA, keyB);
        auto twice = paretoFront<Point>(front, keyA, keyB);
        EXPECT_EQ(ids(twice), ids(front)) << trial;
    }
}

TEST(ParetoProperties, NoDominatedSurvivorAndNoDroppedNonDominated)
{
    Rng rng(2);
    for (int trial = 0; trial < 100; ++trial) {
        auto points = randomPoints(rng, 1 + (int)rng.range(60));
        auto front = paretoFront<Point>(points, keyA, keyB);

        // Survivors are never dominated by any input point.
        for (const auto &survivor : front) {
            for (const auto &p : points) {
                EXPECT_FALSE(dominates(p, survivor))
                    << trial << ": (" << p.a << "," << p.b
                    << ") dominates surviving (" << survivor.a << ","
                    << survivor.b << ")";
            }
        }

        // And everything non-dominated survives (brute force).
        std::multiset<int> expected;
        for (const auto &candidate : points) {
            bool dominated = false;
            for (const auto &p : points)
                if (dominates(p, candidate)) {
                    dominated = true;
                    break;
                }
            if (!dominated)
                expected.insert(candidate.id);
        }
        EXPECT_EQ(ids(front), expected) << trial;
    }
}

TEST(ParetoProperties, SurvivingSetIsPermutationInvariant)
{
    Rng rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        auto points = randomPoints(rng, 2 + (int)rng.range(60));
        auto baseline = ids(paretoFront<Point>(points, keyA, keyB));

        auto shuffled = points;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        EXPECT_EQ(ids(paretoFront<Point>(shuffled, keyA, keyB)),
                  baseline)
            << trial;
    }
}

TEST(ParetoProperties, OutputPreservesInputOrder)
{
    Rng rng(4);
    for (int trial = 0; trial < 50; ++trial) {
        auto points = randomPoints(rng, 2 + (int)rng.range(60));
        auto front = paretoFront<Point>(points, keyA, keyB);
        for (std::size_t i = 1; i < front.size(); ++i)
            EXPECT_LT(front[i - 1].id, front[i].id) << trial;
    }
}

// ---------------------------------------------------------------------
// N-dimensional generalization (paretoFrontND, and the refine
// engine's Pareto stage that runs it over metric columns).

struct NdPoint
{
    std::vector<double> keys;
    int id = 0;
};

std::vector<std::function<double(const NdPoint &)>>
ndKeys(std::size_t d)
{
    std::vector<std::function<double(const NdPoint &)>> keys;
    for (std::size_t k = 0; k < d; ++k)
        keys.push_back([k](const NdPoint &p) { return p.keys[k]; });
    return keys;
}

std::vector<NdPoint>
randomNdPoints(Rng &rng, int count, std::size_t d)
{
    std::vector<NdPoint> points;
    points.reserve(count);
    for (int i = 0; i < count; ++i) {
        NdPoint p;
        for (std::size_t k = 0; k < d; ++k)
            p.keys.push_back((double)rng.range(6));
        p.id = i;
        points.push_back(p);
    }
    return points;
}

std::multiset<int>
ndIds(const std::vector<NdPoint> &points)
{
    std::multiset<int> out;
    for (const auto &p : points)
        out.insert(p.id);
    return out;
}

bool
ndDominates(const NdPoint &x, const NdPoint &y)
{
    bool oneLt = false;
    for (std::size_t k = 0; k < x.keys.size(); ++k) {
        if (x.keys[k] > y.keys[k])
            return false;
        if (x.keys[k] < y.keys[k])
            oneLt = true;
    }
    return oneLt;
}

TEST(ParetoNdProperties, MatchesBruteForceDominanceWithTies)
{
    Rng rng(5);
    for (std::size_t d : {1u, 3u, 4u}) {
        for (int trial = 0; trial < 40; ++trial) {
            auto points = randomNdPoints(rng, 1 + (int)rng.range(60), d);
            auto front = paretoFrontND<NdPoint>(points, ndKeys(d));

            std::multiset<int> expected;
            for (const auto &candidate : points) {
                bool dominated = false;
                for (const auto &p : points)
                    if (ndDominates(p, candidate)) {
                        dominated = true;
                        break;
                    }
                if (!dominated)
                    expected.insert(candidate.id);
            }
            EXPECT_EQ(ndIds(front), expected) << d << "-D " << trial;
        }
    }
}

TEST(ParetoNdProperties, PermutationInvariantAndOrderPreserving)
{
    Rng rng(6);
    for (int trial = 0; trial < 40; ++trial) {
        auto points = randomNdPoints(rng, 2 + (int)rng.range(60), 3);
        auto front = paretoFrontND<NdPoint>(points, ndKeys(3));
        for (std::size_t i = 1; i < front.size(); ++i)
            EXPECT_LT(front[i - 1].id, front[i].id) << trial;

        auto shuffled = points;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        EXPECT_EQ(ndIds(paretoFrontND<NdPoint>(shuffled, ndKeys(3))),
                  ndIds(front))
            << trial;
    }
}

TEST(ParetoNdProperties, TwoKeysReproduceTheLegacy2DFrontExactly)
{
    Rng rng(7);
    for (int trial = 0; trial < 60; ++trial) {
        auto points = randomNdPoints(rng, 1 + (int)rng.range(80), 2);
        auto legacy = paretoFront<NdPoint>(
            points, [](const NdPoint &p) { return p.keys[0]; },
            [](const NdPoint &p) { return p.keys[1]; });
        auto nd = paretoFrontND<NdPoint>(points, ndKeys(2));
        ASSERT_EQ(nd.size(), legacy.size()) << trial;
        for (std::size_t i = 0; i < nd.size(); ++i)
            EXPECT_EQ(nd[i].id, legacy[i].id) << trial;
    }
}

/** The golden-sweep acceptance check: on the reference sweep the
 *  golden-file tier pins, the N-D front over two named metrics is
 *  element-for-element identical to the legacy 2-D front over the
 *  same accessors. */
TEST(ParetoNdProperties, TwoMetricFrontMatchesLegacyOnGoldenSweep)
{
    setQuiet(true);
    auto results = runSweep(testsupport::referenceSweep());
    setQuiet(false);
    ASSERT_EQ(results.size(), 24u);

    const struct
    {
        const char *x;
        const char *y;
        std::function<double(const EvalResult &)> keyX;
        std::function<double(const EvalResult &)> keyY;
    } cases[] = {
        {"total_power", "latency_load",
         [](const EvalResult &r) { return r.totalPower; },
         [](const EvalResult &r) { return r.latencyLoad; }},
        {"read_latency", "total_power",
         [](const EvalResult &r) { return r.array->readLatency; },
         [](const EvalResult &r) { return r.totalPower; }},
    };
    auto paretoOver = [&](std::vector<std::string> metrics) {
        store::StoreQuery query;
        query.paretoMetrics = std::move(metrics);
        return store::applyQuery(results, query);
    };
    for (const auto &c : cases) {
        auto named = paretoOver({c.x, c.y});
        auto legacy = paretoFront<EvalResult>(results, c.keyX, c.keyY);
        ASSERT_EQ(named.size(), legacy.size()) << c.x << "/" << c.y;
        for (std::size_t i = 0; i < named.size(); ++i)
            EXPECT_TRUE(store::identical(named[i], legacy[i]))
                << c.x << "/" << c.y << " item " << i;
    }

    // A maximize metric folds its direction: Pareto over
    // (total_power, density) keeps the high-density frontier.
    auto mixed = paretoOver({"total_power", "density_mb_per_mm2"});
    auto folded = paretoFront<EvalResult>(
        results, [](const EvalResult &r) { return r.totalPower; },
        [](const EvalResult &r) {
            return -r.array->densityMbPerMm2();
        });
    ASSERT_EQ(mixed.size(), folded.size());
    for (std::size_t i = 0; i < mixed.size(); ++i)
        EXPECT_TRUE(store::identical(mixed[i], folded[i])) << i;
}

} // namespace
} // namespace nvmexp
