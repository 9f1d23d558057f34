#include <gtest/gtest.h>

#include "celldb/tentpole.hh"
#include "eval/engine.hh"

namespace nvmexp {
namespace {

ArrayResult
fefetArray()
{
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 8.0 * 1024 * 1024;
    config.wordBits = 64;
    ArrayDesigner designer(catalog.optimistic(CellTech::FeFET), config);
    return designer.optimize(OptTarget::ReadEDP);
}

TEST(WriteBuffer, NoOpConfigMatchesPlainEvaluate)
{
    ArrayResult array = fefetArray();
    auto t = TrafficPattern::fromByteRates("t", 4e9, 80e6, 64);
    EvalResult plain = evaluate(array, t);
    EvalResult buffered =
        evaluateWithWriteBuffer(array, t, WriteBufferConfig{});
    EXPECT_NEAR(buffered.latencyLoad, plain.latencyLoad,
                plain.latencyLoad * 1e-12);
    EXPECT_NEAR(buffered.totalPower, plain.totalPower,
                plain.totalPower * 1e-12);
}

TEST(WriteBuffer, MaskingReducesLatencyLoad)
{
    ArrayResult array = fefetArray();
    auto t = TrafficPattern::fromByteRates("t", 4e9, 80e6, 64);
    WriteBufferConfig config;
    config.latencyMaskFraction = 1.0;
    EvalResult masked = evaluateWithWriteBuffer(array, t, config);
    EvalResult plain = evaluate(array, t);
    EXPECT_LT(masked.latencyLoad, plain.latencyLoad);
}

TEST(WriteBuffer, FullMaskKeepsBufferAccessFloor)
{
    ArrayResult array = fefetArray();
    auto t = TrafficPattern::fromByteRates("t", 1e9, 80e6, 64);
    WriteBufferConfig config;
    config.latencyMaskFraction = 1.0;
    EvalResult masked = evaluateWithWriteBuffer(array, t, config);
    // Effective write latency floors at half the read latency.
    EXPECT_NEAR(masked.array->writeLatency, array.readLatency * 0.5,
                array.readLatency * 1e-9);
}

TEST(WriteBuffer, TrafficReductionLowersPowerAndWear)
{
    ArrayResult array = fefetArray();
    auto t = TrafficPattern::fromByteRates("t", 4e9, 80e6, 64);
    WriteBufferConfig half;
    half.trafficReduction = 0.5;
    EvalResult reduced = evaluateWithWriteBuffer(array, t, half);
    EvalResult plain = evaluate(array, t);
    EXPECT_LT(reduced.totalPower, plain.totalPower);
    EXPECT_NEAR(reduced.lifetimeSec, 2.0 * plain.lifetimeSec,
                plain.lifetimeSec * 1e-9);
}

TEST(WriteBuffer, UnlocksWriteLimitedTechnology)
{
    // Paper Fig. 14: pessimistic FeFET fails write bandwidth under
    // heavy graph traffic; masking makes it serviceable.
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 8.0 * 1024 * 1024;
    config.wordBits = 64;
    ArrayDesigner designer(catalog.pessimistic(CellTech::FeFET),
                           config);
    ArrayResult array = designer.optimize(OptTarget::ReadEDP);
    auto t = TrafficPattern::fromByteRates("t", 4e9, 100e6, 64);
    EXPECT_FALSE(evaluate(array, t).viable());
    WriteBufferConfig wb;
    wb.latencyMaskFraction = 1.0;
    wb.trafficReduction = 0.5;
    EXPECT_TRUE(evaluateWithWriteBuffer(array, t, wb).viable());
}

TEST(WriteBufferDeath, RejectsOutOfRangeFractions)
{
    ArrayResult array = fefetArray();
    auto t = TrafficPattern::fromByteRates("t", 1e9, 1e6, 64);
    WriteBufferConfig bad;
    bad.latencyMaskFraction = 1.5;
    EXPECT_EXIT(evaluateWithWriteBuffer(array, t, bad),
                ::testing::ExitedWithCode(1), "\\[0, 1\\]");
    bad.latencyMaskFraction = 0.0;
    bad.trafficReduction = -0.1;
    EXPECT_EXIT(evaluateWithWriteBuffer(array, t, bad),
                ::testing::ExitedWithCode(1), "\\[0, 1\\]");
}

} // namespace
} // namespace nvmexp
