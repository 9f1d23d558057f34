/**
 * @file
 * Random and edge-case store records for the serialization and
 * store-artifact suites: EvalResults across the magnitudes the models
 * produce, records full of formatter edge cases (NaN, +/-Infinity, -0,
 * subnormals, DBL_MAX, escape-heavy and UTF-8 names), a one-record
 * encode/decode pair, and a field-by-field bit comparison that does
 * not go through the serializer.
 */

#ifndef NVMEXP_TESTS_SUPPORT_RANDOM_RESULTS_HH
#define NVMEXP_TESTS_SUPPORT_RANDOM_RESULTS_HH

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "store/serialize.hh"
#include "util/random.hh"

namespace nvmexp {
namespace testsupport {

/** One record through store::writeJson (compact by default). */
template <typename Record>
std::string
encode(const Record &record, int indent = -1)
{
    std::string out;
    JsonWriter w(out, indent);
    store::writeJson(w, record);
    return out;
}

/** One record decoded from `text` by store::readJson. */
template <typename Record>
Record
decode(const std::string &text)
{
    Record record;
    store::readJson(text, "", record);
    return record;
}

/** Doubles spanning the magnitudes the models produce, plus the
 *  awkward ones (negatives, subnormals, infinities, long fractions). */
inline double
randomDouble(Rng &rng)
{
    switch (rng.range(8)) {
      case 0: return 0.0;
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return rng.uniform();                        // [0, 1)
      case 3: return rng.gaussian() * 1e-12;               // ~energies
      case 4: return rng.gaussian() * 1e9;                 // ~rates
      case 5: return -rng.uniform() * 1e3;
      case 6: return rng.uniform() * 5e-324 * 1e4;         // subnormal-ish
      default: return rng.uniform() * std::pow(10.0, (double)rng.range(40) - 20.0);
    }
}

inline MemCell
randomCell(Rng &rng)
{
    MemCell cell;
    cell.name = "cell-" + std::to_string(rng.range(1000000));
    cell.tech = (CellTech)rng.range((std::uint64_t)CellTech::NumTech);
    cell.flavor = (CellFlavor)rng.range(4);
    cell.senseMode = (SenseMode)rng.range(4);
    cell.bitsPerCell = 1 + (int)rng.range(2);
    cell.areaF2 = randomDouble(rng);
    cell.aspectRatio = randomDouble(rng);
    cell.readVoltage = randomDouble(rng);
    cell.writeVoltage = randomDouble(rng);
    cell.resistanceOn = randomDouble(rng);
    cell.resistanceOff = randomDouble(rng);
    cell.setPulse = randomDouble(rng);
    cell.resetPulse = randomDouble(rng);
    cell.setCurrent = randomDouble(rng);
    cell.resetCurrent = randomDouble(rng);
    cell.readEnergyPerBit = randomDouble(rng);
    cell.endurance = randomDouble(rng);
    cell.retention = randomDouble(rng);
    cell.nonVolatile = rng.bernoulli(0.5);
    cell.cellLeakage = randomDouble(rng);
    cell.minNodeNm = 1 + (int)rng.range(90);
    cell.mlcCapable = rng.bernoulli(0.5);
    return cell;
}

inline ArrayResult
randomArray(Rng &rng)
{
    ArrayResult a;
    a.cell = randomCell(rng);
    a.nodeNm = 1 + (int)rng.range(90);
    a.capacityBytes = randomDouble(rng);
    a.wordBits = 1 + (int)rng.range(1024);
    a.org.banks = 1 + (int)rng.range(16);
    a.org.subarraysPerBank = 1 + (int)rng.range(64);
    a.org.subarray.rows = 1 << rng.range(12);
    a.org.subarray.cols = 1 << rng.range(12);
    a.org.subarray.sensedBits = 1 + (int)rng.range(512);
    a.readLatency = randomDouble(rng);
    a.writeLatency = randomDouble(rng);
    a.readEnergy = randomDouble(rng);
    a.writeEnergy = randomDouble(rng);
    a.leakage = randomDouble(rng);
    a.areaM2 = randomDouble(rng);
    a.areaEfficiency = randomDouble(rng);
    a.readBandwidth = randomDouble(rng);
    a.writeBandwidth = randomDouble(rng);
    return a;
}

inline TrafficPattern
randomTraffic(Rng &rng)
{
    TrafficPattern t;
    t.name = "traffic,with \"quotes\"\n" + std::to_string(rng.range(1000));
    t.readsPerSec = randomDouble(rng);
    t.writesPerSec = randomDouble(rng);
    t.execTime = randomDouble(rng);
    return t;
}

/** A row over a random array and traffic: the values are built first,
 *  then the handles the row refers to them by. */
inline EvalResult
randomEvalResult(Rng &rng)
{
    ArrayResult array = randomArray(rng);
    TrafficPattern traffic = randomTraffic(rng);
    EvalResult r;
    r.array = std::make_shared<const ArrayResult>(std::move(array));
    r.traffic = std::make_shared<const TrafficPattern>(std::move(traffic));
    r.dynamicPower = randomDouble(rng);
    r.leakagePower = randomDouble(rng);
    r.totalPower = randomDouble(rng);
    r.latencyLoad = randomDouble(rng);
    r.slowdown = randomDouble(rng);
    r.totalAccessLatency = randomDouble(rng);
    r.meetsReadBandwidth = rng.bernoulli(0.5);
    r.meetsWriteBandwidth = rng.bernoulli(0.5);
    r.lifetimeSec = randomDouble(rng);
    r.reliability.scheme = "scheme-" + std::to_string(rng.range(100));
    r.reliability.scrubIntervalSec = randomDouble(rng);
    r.reliability.rawBer = randomDouble(rng);
    r.reliability.scrubbedBer = randomDouble(rng);
    r.reliability.uncorrectableWordRate = randomDouble(rng);
    r.reliability.uncorrectableImageRate = randomDouble(rng);
    r.reliability.eccOverhead = randomDouble(rng);
    return r;
}

/** Doubles at the edges of the number formatter: the non-finite
 *  literals, signed zero, the extremes and subnormals, exact integers
 *  where the shortest form switches to an exponent, and (half the
 *  time) an arbitrary non-NaN bit pattern. */
inline double
edgeDouble(Rng &rng)
{
    static const double specials[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, DBL_TRUE_MIN * 4097.0, DBL_EPSILON, 1e21, 1e22,
        9007199254740993.0, 0.1, 1.0 / 3.0, 146.0,
    };
    if (rng.bernoulli(0.5))
        return specials[rng.range(std::size(specials))];
    std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return std::isnan(value) ? -0.0 : value;
}

/** Names heavy with what the escaper must handle: quotes, backslashes,
 *  every control byte (NUL included), DEL, text that looks like an
 *  escape, and 2-, 3- and 4-byte UTF-8. */
inline std::string
edgeName(Rng &rng)
{
    static const char *const pieces[] = {
        "\"", "\\", "/", "\\u0041", ",", "{", "}", "[", "]", ":",
        " ", "a", "Z", "9", "\x7f", "\xc2\xb5", "\xe2\x82\xac",
        "\xf0\x9d\x84\x9e",
    };
    std::string name;
    std::size_t length = rng.range(24);
    for (std::size_t i = 0; i < length; ++i) {
        if (rng.bernoulli(0.3))
            name += (char)rng.range(0x20);
        else
            name += pieces[rng.range(std::size(pieces))];
    }
    return name;
}

/** Every double field of a row: its array's (the cell's included),
 *  its traffic's and its own, in a fixed order. */
template <typename Array, typename Traffic, typename Result>
auto
doubleFields(Array &a, Traffic &t, Result &r)
{
    auto &c = a.cell;
    auto &rel = r.reliability;
    return std::vector{
        &c.areaF2, &c.aspectRatio, &c.readVoltage, &c.writeVoltage,
        &c.resistanceOn, &c.resistanceOff, &c.setPulse, &c.resetPulse,
        &c.setCurrent, &c.resetCurrent, &c.readEnergyPerBit,
        &c.endurance, &c.retention, &c.cellLeakage, &a.capacityBytes,
        &a.readLatency, &a.writeLatency, &a.readEnergy, &a.writeEnergy,
        &a.leakage, &a.areaM2, &a.areaEfficiency, &a.readBandwidth,
        &a.writeBandwidth, &t.readsPerSec, &t.writesPerSec, &t.execTime,
        &r.dynamicPower, &r.leakagePower, &r.totalPower, &r.latencyLoad,
        &r.slowdown, &r.totalAccessLatency, &r.lifetimeSec,
        &rel.scrubIntervalSec, &rel.rawBer, &rel.scrubbedBer,
        &rel.uncorrectableWordRate, &rel.uncorrectableImageRate,
        &rel.eccOverhead,
    };
}

/** A random row with every double and name replaced by a formatter
 *  edge case; its array and traffic are new values with new handles. */
inline EvalResult
edgeEvalResult(Rng &rng)
{
    EvalResult r = randomEvalResult(rng);
    ArrayResult array = *r.array;
    TrafficPattern traffic = *r.traffic;
    for (double *field : doubleFields(array, traffic, r))
        *field = edgeDouble(rng);
    array.cell.name = edgeName(rng);
    traffic.name = edgeName(rng);
    r.reliability.scheme = edgeName(rng);
    r.array = std::make_shared<const ArrayResult>(std::move(array));
    r.traffic = std::make_shared<const TrafficPattern>(std::move(traffic));
    return r;
}

inline std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Field-by-field equality that does not go through the serializer:
 *  doubles compare by bit pattern. */
inline void
expectBitIdentical(const EvalResult &expected, const EvalResult &actual)
{
    const ArrayResult &a = *expected.array;
    const ArrayResult &b = *actual.array;
    auto want = doubleFields(a, *expected.traffic, expected);
    auto got = doubleFields(b, *actual.traffic, actual);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bitsOf(*want[i]), bitsOf(*got[i])) << "double #" << i;
    EXPECT_EQ(a.cell.name, b.cell.name);
    EXPECT_EQ(a.cell.tech, b.cell.tech);
    EXPECT_EQ(a.cell.flavor, b.cell.flavor);
    EXPECT_EQ(a.cell.senseMode, b.cell.senseMode);
    EXPECT_EQ(a.cell.bitsPerCell, b.cell.bitsPerCell);
    EXPECT_EQ(a.cell.nonVolatile, b.cell.nonVolatile);
    EXPECT_EQ(a.cell.minNodeNm, b.cell.minNodeNm);
    EXPECT_EQ(a.cell.mlcCapable, b.cell.mlcCapable);
    EXPECT_EQ(a.nodeNm, b.nodeNm);
    EXPECT_EQ(a.wordBits, b.wordBits);
    EXPECT_EQ(a.org.banks, b.org.banks);
    EXPECT_EQ(a.org.subarraysPerBank, b.org.subarraysPerBank);
    EXPECT_EQ(a.org.subarray.rows, b.org.subarray.rows);
    EXPECT_EQ(a.org.subarray.cols, b.org.subarray.cols);
    EXPECT_EQ(a.org.subarray.sensedBits, b.org.subarray.sensedBits);
    EXPECT_EQ(expected.traffic->name, actual.traffic->name);
    EXPECT_EQ(expected.meetsReadBandwidth, actual.meetsReadBandwidth);
    EXPECT_EQ(expected.meetsWriteBandwidth, actual.meetsWriteBandwidth);
    EXPECT_EQ(expected.reliability.scheme, actual.reliability.scheme);
}

} // namespace testsupport
} // namespace nvmexp

#endif // NVMEXP_TESTS_SUPPORT_RANDOM_RESULTS_HH
