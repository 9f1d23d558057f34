#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "../support/fixtures.hh"
#include "../support/golden_compare.hh"
#include "../support/random_results.hh"
#include "campaign/campaign.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "reliability/reliability.hh"
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
        EXPECT_EQ(original.array->cell.name, restored.array->cell.name);
        EXPECT_EQ(original.array->cell.tech, restored.array->cell.tech);
        EXPECT_EQ(original.array->cell.endurance,
                  restored.array->cell.endurance);
        EXPECT_EQ(original.array->readLatency,
                  restored.array->readLatency);
        EXPECT_EQ(original.array->org.subarray.cols,
                  restored.array->org.subarray.cols);
        EXPECT_EQ(original.traffic->name, restored.traffic->name);
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
    EXPECT_EQ(encode(results, 2).rfind("{\n  \"format\": " +
                                           std::to_string(
                                               store::kFormatVersion) +
                                           ",\n",
                                       0),
              0u);
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

/** `text` copied through a reader into a writer at `indent`. */
std::string
readerCopy(const std::string &text, int indent)
{
    std::string out;
    JsonWriter w(out, indent);
    JsonReader r(text);
    testsupport::copyJson(r, w);
    r.end();
    return out;
}

/** Differential: the artifacts the store writes through JsonWriter
 *  equal what a reader copied into a writer makes of them, for records
 *  full of edge-case numbers and names, and decode back to the exact
 *  input. */
TEST(StoreSerialize, WrittenArtifactsMatchAReaderCopy)
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
        EXPECT_TRUE(readerCopy(text, 2) + "\n" == text) << text;
        auto decoded = decode<std::vector<EvalResult>>(text);
        ASSERT_EQ(decoded.size(), results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            expectBitIdentical(results[i], decoded[i]);

        std::ifstream journal(dir + "/checkpoint.jsonl");
        std::string line;
        ASSERT_TRUE((bool)std::getline(journal, line));  // header
        std::size_t slot = 0;
        for (; std::getline(journal, line); ++slot) {
            EXPECT_TRUE(readerCopy(line, -1) == line) << line;
            EXPECT_EQ(controlBytes(line), 0u) << line;
            ASSERT_LT(slot, results.size());
            store::JournalEntry entry = decode<store::JournalEntry>(line);
            EXPECT_EQ(entry.slot, slot);
            expectBitIdentical(results[slot], entry.result);
        }
        EXPECT_EQ(slot, results.size());
    }
}

/** The one file in `dir`. */
std::string
onlyFileIn(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().string());
    EXPECT_EQ(files.size(), 1u) << dir;
    return files.empty() ? "" : testsupport::fileText(files[0]);
}

/** The exact bytes of every stored document besides results.json
 *  (which the goldens pin): smallSweep()'s stats.json and its journal's
 *  header and first entry line, a cache entry of each kind, a 2-shard
 *  campaign.json, and the sweep fingerprint with and without a
 *  reliability axis. Another store and campaign must read them, so a
 *  change to any byte is a format change. */
TEST(StoreSerialize, StoredDocumentsKeepTheirBytes)
{
    setQuiet(true);
    const std::string base = ::testing::TempDir() + "nvmexp_pinned_bytes";
    std::filesystem::remove_all(base);
    SweepConfig sweep = testsupport::smallSweep();
    sweep.outDir = base + "/sweep";
    std::vector<EvalResult> results = runSweep(sweep);
    ASSERT_EQ(results.size(), 16u);

    EXPECT_EQ(testsupport::fileText(sweep.outDir + "/stats.json"),
              "{\n"
              "  \"format\": 2,\n"
              "  \"cache_hits\": 0,\n"
              "  \"cache_misses\": 8,\n"
              "  \"cache_stores\": 8,\n"
              "  \"checkpoint_loaded\": 0,\n"
              "  \"checkpoint_computed\": 16\n"
              "}\n");

    const std::string array =
        R"json({"cell":{"name":"STT-Opt","tech":"STT",)json"
        R"json("flavor":"Optimistic",)json"
        R"json("sense_mode":"Current","bits_per_cell":1,"area_f2":14,)json"
        R"json("aspect_ratio":1,"read_voltage":0.1,"write_voltage":0.8,)json"
        R"json("resistance_on":2500,"resistance_off":6000,)json"
        R"json("set_pulse":2e-09,)json"
        R"json("reset_pulse":2e-09,"set_current":4.9999999999999996e-05,)json"
        R"json("reset_current":4.9999999999999996e-05,)json"
        R"json("read_energy_per_bit":1e-15,"endurance":1e+15,)json"
        R"json("retention":1e+08,"non_volatile":true,"cell_leakage":0,)json"
        R"json("min_node_nm":22,"mlc_capable":true},"node_nm":22,)json"
        R"json("capacity_bytes":2097152,"word_bits":512,)json"
        R"json("org":{"banks":16,)json"
        R"json("subarrays_per_bank":2,"rows":256,"cols":2048,)json"
        R"json("sensed_bits":512},"read_latency":1.023111710351807e-09,)json"
        R"json("write_latency":2.4740364828717696e-09,)json"
        R"json("read_energy":2.989794352186084e-11,)json"
        R"json("write_energy":6.497642329450781e-11,)json"
        R"json("leakage":0.00044049681189273606,)json"
        R"json("area_m2":1.5576486210109444e-07,)json"
        R"json("area_efficiency":0.729833507265701,)json"
        R"json("read_bandwidth":1000868223517.7307,)json"
        R"json("write_bandwidth":413898504362.95056})json";
    std::ifstream journal(sweep.outDir + "/checkpoint.jsonl");
    std::string header, first;
    ASSERT_TRUE(std::getline(journal, header) && std::getline(journal, first));
    EXPECT_EQ(header,
              R"json({"format":2,"fingerprint":"90467609970c072e",)json"
              R"json("slots":16})json");
    EXPECT_EQ(first,
              R"json({"slot":0,"result":{"array":)json" + array +
                  R"json(,"traffic":{"name":"light",)json"
                  R"json("reads_per_sec":15625000,)json"
                  R"json("writes_per_sec":15625,"exec_time":1},)json"
                  R"json("dynamic_power":0.0004681706241430523,)json"
                  R"json("leakage_power":0.00044049681189273606,)json"
                  R"json("total_power":0.0009086674360357884,)json"
                  R"json("latency_load":0.0010015485808932407,)json"
                  R"json("slowdown":1,)json"
                  R"json("total_access_latency":0.016024777294291852,)json"
                  R"json("meets_read_bandwidth":true,)json"
                  R"json("meets_write_bandwidth":true,"reliability":{)json"
                  R"json("scheme":"none","scrub_interval_sec":0,)json"
                  R"json("raw_ber":9.588709444976104e-07,)json"
                  R"json("scrubbed_ber":9.588709444976104e-07,)json"
                  R"json("uncorrectable_word_rate":6.136588690666678e-05,)json"
                  R"json("uncorrectable_image_rate":0.999999896861456,)json"
                  R"json("ecc_overhead":1},)json"
                  R"json("lifetime_sec":2.097152e+15}})json");

    store::ResultStore arrays(base + "/array");
    arrays.storeArray("pinned-array", *results[0].array);
    EXPECT_EQ(onlyFileIn(base + "/array/cache"),
              R"json({"key":"pinned-array","array":)json" + array + "}\n");
    store::ResultStore invalid(base + "/invalid");
    invalid.storeInvalid("pinned-invalid");
    EXPECT_EQ(onlyFileIn(base + "/invalid/cache"),
              "{\"key\":\"pinned-invalid\",\"invalid\":true}\n");

    SweepConfig plain = testsupport::smallSweep();
    campaign::planCampaign(base + "/campaign", plain, 2);
    EXPECT_EQ(testsupport::fileText(base + "/campaign/campaign.json"),
              "{\n"
              "  \"format\": 2,\n"
              "  \"campaign_format\": 2,\n"
              "  \"fingerprint\": \"90467609970c072e\",\n"
              "  \"shard_count\": 2,\n"
              "  \"granularity\": 1\n"
              "}\n");

    EXPECT_EQ(store::sweepFingerprint(plain), "90467609970c072e");
    reliability::ReliabilitySpec none, secded;
    secded.ecc = "secded-72-64";
    secded.scrubIntervalSec = 3600.0;
    plain.reliability = {none, secded};
    EXPECT_EQ(store::sweepFingerprint(plain), "3ca134292908cb1a");
    std::filesystem::remove_all(base);
    setQuiet(false);
}

TEST(StoreSerialize, NonFiniteNumbersSurviveTheParser)
{
    JsonReader r("[Infinity, -Infinity, NaN]");
    std::vector<double> a;
    r.beginArray();
    while (r.nextElement())
        a.push_back(r.number());
    r.end();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_TRUE(std::isinf(a[0]));
    EXPECT_GT(a[0], 0.0);
    EXPECT_TRUE(std::isinf(a[1]));
    EXPECT_LT(a[1], 0.0);
    EXPECT_TRUE(std::isnan(a[2]));
}

} // namespace
} // namespace nvmexp
