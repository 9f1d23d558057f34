#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "../support/golden_compare.hh"
#include "../support/random_results.hh"
#include "celldb/tentpole.hh"
#include "store/result_store.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

using testsupport::decode;
using testsupport::edgeEvalResult;
using testsupport::encode;
using testsupport::expectBitIdentical;
using testsupport::randomEvalResult;

/** Property: deserialize(serialize(r)) == r, exactly, for randomized
 *  EvalResults (including non-finite metrics and hostile strings). */
TEST(StoreSerialize, RandomizedEvalResultRoundTripsExactly)
{
    Rng rng(20260729);
    for (int trial = 0; trial < 200; ++trial) {
        EvalResult original = randomEvalResult(rng);
        EvalResult restored = decode<EvalResult>(encode(original));

        EXPECT_TRUE(store::identical(original, restored)) << trial;
        // Spot-check bitwise equality on representative fields (the
        // identical() helper compares via the same serializer under
        // test, so pin a few fields independently).
        EXPECT_EQ(original.array.cell.name, restored.array.cell.name);
        EXPECT_EQ(original.array.cell.tech, restored.array.cell.tech);
        EXPECT_EQ(original.array.cell.endurance,
                  restored.array.cell.endurance);
        EXPECT_EQ(original.array.readLatency,
                  restored.array.readLatency);
        EXPECT_EQ(original.array.org.subarray.cols,
                  restored.array.org.subarray.cols);
        EXPECT_EQ(original.traffic.name, restored.traffic.name);
        EXPECT_EQ(original.totalPower, restored.totalPower);
        EXPECT_EQ(original.lifetimeSec, restored.lifetimeSec);
        EXPECT_EQ(original.meetsWriteBandwidth,
                  restored.meetsWriteBandwidth);
        EXPECT_EQ(original.reliability.scheme,
                  restored.reliability.scheme);
        EXPECT_EQ(original.reliability.uncorrectableWordRate,
                  restored.reliability.uncorrectableWordRate);
        EXPECT_EQ(original.reliability.eccOverhead,
                  restored.reliability.eccOverhead);
    }
}

/** Property: serialization is stable — serializing the deserialized
 *  value reproduces the original document byte-for-byte (pretty and
 *  compact forms). */
TEST(StoreSerialize, SerializationIsByteStable)
{
    Rng rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        EvalResult original = randomEvalResult(rng);
        std::string once = encode(original, 2);
        EvalResult restored = decode<EvalResult>(once);
        EXPECT_EQ(once, encode(restored, 2)) << trial;
        EXPECT_EQ(encode(original), encode(restored));
    }
}

TEST(StoreSerialize, RealCharacterizedArrayRoundTrips)
{
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 2.0 * 1024 * 1024;
    ArrayDesigner designer(catalog.optimistic(CellTech::STT), config);
    ArrayResult array = designer.optimize(OptTarget::ReadEDP);

    ArrayResult restored = decode<ArrayResult>(encode(array, 2));
    EXPECT_TRUE(store::identical(array, restored));
    EXPECT_EQ(array.readLatency, restored.readLatency);
    EXPECT_EQ(array.areaM2, restored.areaM2);
}

TEST(StoreSerialize, ResultVectorRoundTripsWithFormatTag)
{
    Rng rng(7);
    std::vector<EvalResult> results = {randomEvalResult(rng),
                                       randomEvalResult(rng)};
    JsonValue doc = JsonValue::parse(encode(results, 2));
    EXPECT_EQ((int)doc.at("format").asNumber(), store::kFormatVersion);
    auto restored = decode<std::vector<EvalResult>>(encode(results, 2));
    ASSERT_EQ(restored.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(store::identical(results[i], restored[i]));
}


/** Raw control bytes other than line breaks: a strict JSON reader
 *  rejects any inside a string, so the writer must leave none. */
std::size_t
controlBytes(const std::string &text)
{
    return (std::size_t)std::count_if(text.begin(), text.end(), [](char c) {
        return (unsigned char)c < 0x20 && c != '\n';
    });
}

/** Differential: the artifacts the store writes through JsonWriter
 *  equal what the parser and JsonValue::dump() make of them, for
 *  records full of edge-case numbers and names, and decode back to
 *  the exact input. */
TEST(StoreSerialize, WrittenArtifactsMatchParseThenDump)
{
    std::string dir = ::testing::TempDir() + "nvmexp_writer_differential";
    std::filesystem::remove_all(dir);
    Rng rng(0x5EED0012);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::vector<EvalResult> results(rng.range(4));
        for (auto &result : results)
            result = edgeEvalResult(rng);

        store::ResultStore resultStore(dir);
        resultStore.openCheckpoint("differential", results.size(),
                                   false);
        for (std::size_t slot = 0; slot < results.size(); ++slot)
            resultStore.checkpointSlot(slot, results[slot]);
        resultStore.closeCheckpoint();
        resultStore.writeResults(results);

        std::string text = testsupport::fileText(dir + "/results.json");
        ASSERT_TRUE(text == store::serializeResults(results));
        EXPECT_EQ(controlBytes(text), 0u);
        JsonValue doc;
        ASSERT_TRUE(JsonValue::tryParse(text, doc)) << text;
        EXPECT_TRUE(doc.dump(2) + "\n" == text) << text;
        auto decoded = decode<std::vector<EvalResult>>(text);
        ASSERT_EQ(decoded.size(), results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            expectBitIdentical(results[i], decoded[i]);

        std::ifstream journal(dir + "/checkpoint.jsonl");
        std::string line;
        ASSERT_TRUE((bool)std::getline(journal, line));  // header
        std::size_t slot = 0;
        for (; std::getline(journal, line); ++slot) {
            JsonValue entry;
            ASSERT_TRUE(JsonValue::tryParse(line, entry)) << line;
            EXPECT_TRUE(entry.dump(-1) == line) << line;
            EXPECT_EQ(controlBytes(line), 0u) << line;
            ASSERT_LT(slot, results.size());
            EXPECT_EQ(entry.at("slot").asNumber(), (double)slot);
            expectBitIdentical(results[slot],
                               decode<store::JournalEntry>(line).result);
        }
        EXPECT_EQ(slot, results.size());
    }
}

TEST(StoreSerialize, NonFiniteNumbersSurviveTheParser)
{
    JsonValue doc = JsonValue::parse("[Infinity, -Infinity, NaN]");
    const auto &a = doc.asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_TRUE(std::isinf(a[0].asNumber()));
    EXPECT_GT(a[0].asNumber(), 0.0);
    EXPECT_TRUE(std::isinf(a[1].asNumber()));
    EXPECT_LT(a[1].asNumber(), 0.0);
    EXPECT_TRUE(std::isnan(a[2].asNumber()));
}

} // namespace
} // namespace nvmexp
