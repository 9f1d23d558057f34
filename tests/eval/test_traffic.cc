#include <gtest/gtest.h>

#include <limits>

#include <cmath>

#include "eval/traffic.hh"

namespace nvmexp {
namespace {

TEST(Traffic, FromByteRatesConvertsToWordAccesses)
{
    auto t = TrafficPattern::fromByteRates("t", 6.4e9, 6.4e7, 512);
    EXPECT_DOUBLE_EQ(t.readsPerSec, 1e8);   // 6.4 GB/s / 64 B
    EXPECT_DOUBLE_EQ(t.writesPerSec, 1e6);
    EXPECT_DOUBLE_EQ(t.readBytesPerSec(512), 6.4e9);
    EXPECT_DOUBLE_EQ(t.writeBytesPerSec(512), 6.4e7);
}

TEST(Traffic, FromCountsDividesByExecTime)
{
    auto t = TrafficPattern::fromCounts("t", 1000.0, 100.0, 0.5);
    EXPECT_DOUBLE_EQ(t.readsPerSec, 2000.0);
    EXPECT_DOUBLE_EQ(t.writesPerSec, 200.0);
    EXPECT_DOUBLE_EQ(t.readsPerExec(), 1000.0);
    EXPECT_DOUBLE_EQ(t.writesPerExec(), 100.0);
}

TEST(Traffic, ReadFraction)
{
    auto t = TrafficPattern::fromCounts("t", 300.0, 100.0, 1.0);
    EXPECT_DOUBLE_EQ(t.readFraction(), 0.75);
    TrafficPattern idle;
    idle.name = "idle";
    EXPECT_DOUBLE_EQ(idle.readFraction(), 1.0);
}

TEST(Traffic, ScaledMultipliesBothRates)
{
    auto t = TrafficPattern::fromCounts("t", 100.0, 10.0, 1.0);
    auto s = t.scaled(3.0, "t3");
    EXPECT_EQ(s.name, "t3");
    EXPECT_DOUBLE_EQ(s.readsPerSec, 300.0);
    EXPECT_DOUBLE_EQ(s.writesPerSec, 30.0);
    EXPECT_DOUBLE_EQ(s.execTime, t.execTime);
}

TEST(TrafficDeath, InvalidInputsAreFatal)
{
    EXPECT_EXIT(TrafficPattern::fromCounts("t", 1.0, 1.0, 0.0),
                ::testing::ExitedWithCode(1), "execution time");
    EXPECT_EXIT(TrafficPattern::fromByteRates("t", 1.0, 1.0, 0),
                ::testing::ExitedWithCode(1), "word size");
    auto t = TrafficPattern::fromCounts("t", 1.0, 1.0, 1.0);
    EXPECT_EXIT(t.scaled(-1.0, "bad"), ::testing::ExitedWithCode(1),
                "non-negative");
    TrafficPattern bad;
    bad.name = "bad";
    bad.readsPerSec = -1.0;
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "negative");
}

TEST(TrafficDeath, NonFiniteRatesAndTimesAreFatal)
{
    // A config's "write_bytes_per_sec": NaN used to load and then fill
    // every row of the run with NaN (found by the config fuzz suite).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(TrafficPattern::fromByteRates("t", 1e9, nan, 512),
                ::testing::ExitedWithCode(1),
                "traffic 't': access rates must be finite");
    EXPECT_EXIT(TrafficPattern::fromCounts("t", inf, 1.0, 1.0),
                ::testing::ExitedWithCode(1), "must be finite");
    EXPECT_EXIT(TrafficPattern::fromCounts("t", 1.0, 1.0, nan),
                ::testing::ExitedWithCode(1), "execution time");
    EXPECT_EXIT(TrafficPattern::fromByteRates("t", 1e9, 1e6, 512, inf),
                ::testing::ExitedWithCode(1),
                "execution time must be finite");
}

TEST(TrafficGrid, SizeAndBounds)
{
    auto grid = genericTrafficGrid(1e9, 10e9, 1e6, 100e6, 5, 64);
    EXPECT_EQ(grid.size(), 25u);
    for (const auto &t : grid) {
        double rd = t.readBytesPerSec(64);
        double wr = t.writeBytesPerSec(64);
        EXPECT_GE(rd, 1e9 * 0.999);
        EXPECT_LE(rd, 10e9 * 1.001);
        EXPECT_GE(wr, 1e6 * 0.999);
        EXPECT_LE(wr, 100e6 * 1.001);
    }
}

TEST(TrafficGrid, LogSpacedEndpointsExact)
{
    auto grid = genericTrafficGrid(1e9, 10e9, 1e6, 100e6, 3, 64);
    EXPECT_NEAR(grid.front().readBytesPerSec(64), 1e9, 1.0);
    EXPECT_NEAR(grid.back().readBytesPerSec(64), 10e9, 10.0);
    // Middle step is the geometric midpoint.
    EXPECT_NEAR(grid[4].readBytesPerSec(64), std::sqrt(1e9 * 10e9),
                1e6);
}

TEST(TrafficGridDeath, RejectsBadBounds)
{
    EXPECT_EXIT(genericTrafficGrid(1e9, 1e8, 1e6, 1e8, 3, 64),
                ::testing::ExitedWithCode(1), "bounds");
    EXPECT_EXIT(genericTrafficGrid(1e9, 1e10, 1e6, 1e8, 1, 64),
                ::testing::ExitedWithCode(1), "steps");
}

} // namespace
} // namespace nvmexp
