/**
 * @file
 * Seeded property and mutation tier for the result store's readers.
 *
 * Differential: records full of formatter edge cases (NaN, +/-Infinity,
 * -0, subnormals, DBL_MAX, escape-heavy and UTF-8 names) written by
 * JsonWriter decode bit-identically through the JsonReader decoders,
 * as single records, journal lines (scan and resume), and whole
 * results.json files.
 *
 * Mutation: results.json, journal lines, cache entries, and stats.json
 * are truncated, byte-flipped, given integers that are not whole
 * (2.5, -1, 1e300, NaN, Infinity), and given repeated or missing
 * members. No reader may crash or hang; loadResults and loadStats
 * either load or fail naming the file, scanCheckpoint skips the bad
 * line, and lookupArray misses.
 *
 * All randomness flows from the project Rng with fixed seeds; runs
 * under the CI ASan/UBSan leg.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../support/golden_compare.hh"
#include "../support/random_results.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

using testsupport::decode;
using testsupport::edgeEvalResult;
using testsupport::encode;
using testsupport::expectBitIdentical;
using testsupport::fileText;

class StoreFuzz : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }  // torn lines warn
    void TearDown() override { setQuiet(false); }

    std::string
    freshDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_store_fuzz_" + name;
        std::filesystem::remove_all(dir);
        return dir;
    }
};

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/** Members whose values are whole numbers, and values that are not. */
const char *const kIntegerKeys[] = {
    "bits_per_cell", "min_node_nm", "node_nm", "word_bits", "banks",
    "subarrays_per_bank", "rows", "cols", "sensed_bits",
};
const char *const kBadIntegers[] = {"2.5", "-1", "1e300", "NaN",
                                    "Infinity"};

/** Number and boolean members that never close their object, so
 *  removing one with its comma leaves well-formed text. */
const char *const kInnerMembers[] = {
    "bits_per_cell", "area_f2", "read_latency", "banks",
    "dynamic_power", "meets_read_bandwidth", "reads_per_sec",
};

/** Byte ranges [begin, end) of every number or boolean value of member
 *  `key` (a quoted pattern never matches inside a string, where quotes
 *  are escaped). */
std::vector<std::pair<std::size_t, std::size_t>>
valuesOf(const std::string &text, const std::string &key)
{
    std::vector<std::pair<std::size_t, std::size_t>> values;
    std::string needle = "\"" + key + "\":";
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
        std::size_t begin = text.find_first_not_of(' ', at + needle.size());
        values.emplace_back(begin, text.find_first_of(",}\n", begin));
    }
    return values;
}

/** The kinds of damage a mutation does. Every kind but ByteFlip makes
 *  the text something no store writes, which a reader must refuse. */
enum class Damage { Truncate, BadInteger, Repeat, Remove, ByteFlip };

/** `text` damaged once, picked with `rng`; "" if the damage does not
 *  apply (no such member in the text). */
std::string
damaged(const std::string &text, Damage damage, Rng &rng,
        const std::vector<std::string> &integerKeys)
{
    switch (damage) {
      case Damage::Truncate:
        // Cut before the final '}', so the document stays open.
        return text.substr(0, rng.range(text.rfind('}')));
      case Damage::BadInteger: {
        const std::string &key = integerKeys[rng.range(integerKeys.size())];
        auto values = valuesOf(text, key);
        if (values.empty())
            return "";
        auto [begin, end] = values[rng.range(values.size())];
        return text.substr(0, begin) +
            kBadIntegers[rng.range(std::size(kBadIntegers))] +
            text.substr(end);
      }
      case Damage::Repeat:
      case Damage::Remove: {
        std::string key = kInnerMembers[rng.range(std::size(kInnerMembers))];
        auto values = valuesOf(text, key);
        if (values.empty())
            return "";
        auto [begin, end] = values[rng.range(values.size())];
        std::size_t keyStart = text.rfind('"' + key + '"', begin);
        std::size_t comma = text.find(',', end);
        std::string member = text.substr(keyStart, comma + 1 - keyStart);
        if (damage == Damage::Repeat)
            return text.substr(0, keyStart) + member + text.substr(keyStart);
        return text.substr(0, keyStart) + text.substr(comma + 1);
      }
      case Damage::ByteFlip: {
        std::string out = text;
        out[rng.range(out.size())] = (char)rng.range(256);
        return out;
      }
    }
    return "";
}

const Damage kDamages[] = {Damage::Truncate, Damage::BadInteger,
                           Damage::Repeat, Damage::Remove,
                           Damage::ByteFlip};

std::vector<std::string>
recordIntegerKeys()
{
    return {std::begin(kIntegerKeys), std::end(kIntegerKeys)};
}

std::vector<EvalResult>
edgeResults(Rng &rng, std::size_t count)
{
    std::vector<EvalResult> results(count);
    for (auto &result : results)
        result = edgeEvalResult(rng);
    return results;
}

/** Journal `results` into `dir` as one sweep of results.size() slots,
 *  then write its results.json and stats.json. */
void
writeStore(const std::string &dir, const std::vector<EvalResult> &results)
{
    store::ResultStore resultStore(dir);
    resultStore.openCheckpoint("fuzz", results.size(), false);
    for (std::size_t slot = 0; slot < results.size(); ++slot)
        resultStore.checkpointSlot(slot, results[slot]);
    resultStore.closeCheckpoint();
    resultStore.writeResults(results);
    resultStore.writeStats();
}

TEST_F(StoreFuzz, EdgeRecordsRoundTripThroughTheReader)
{
    Rng rng(0x5EED0015);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        EvalResult result = edgeEvalResult(rng);
        for (int indent : {-1, 0, 2}) {
            EvalResult back = decode<EvalResult>(encode(result, indent));
            EXPECT_TRUE(store::identical(result, back));
            expectBitIdentical(result, back);
            ArrayResult array =
                decode<ArrayResult>(encode(*result.array, indent));
            EXPECT_TRUE(store::identical(*result.array, array));
        }
    }
}

TEST_F(StoreFuzz, EdgeJournalsAndResultsFilesRoundTrip)
{
    std::string dir = freshDir("roundtrip");
    Rng rng(0x5EED0016);
    for (int trial = 0; trial < 30; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::filesystem::remove_all(dir);
        auto results = edgeResults(rng, rng.range(6));
        writeStore(dir, results);

        auto loaded = store::loadResults(dir);
        ASSERT_EQ(loaded.size(), results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            expectBitIdentical(results[i], loaded[i]);

        store::CheckpointScan scan = store::scanCheckpoint(dir);
        ASSERT_TRUE(scan.headerOk);
        ASSERT_EQ(scan.entries.size(), results.size());
        for (const auto &entry : scan.entries) {
            auto line = decode<store::JournalEntry>(entry.line);
            EXPECT_EQ(line.slot, entry.slot);
            expectBitIdentical(results[entry.slot], line.result);
        }

        // Resume decodes the kept lines and rewrites the same journal.
        std::string journal = fileText(dir + "/checkpoint.jsonl");
        store::ResultStore again(dir);
        auto done = again.openCheckpoint("fuzz", results.size(), true);
        again.closeCheckpoint();
        ASSERT_EQ(done.size(), results.size());
        for (const auto &[slot, result] : done)
            expectBitIdentical(results[slot], result);
        EXPECT_TRUE(fileText(dir + "/checkpoint.jsonl") == journal);
    }
}

TEST_F(StoreFuzz, MutatedResultsFilesLoadOrNameTheFile)
{
    std::string dir = freshDir("results");
    Rng rng(0x5EED0017);
    writeStore(dir, edgeResults(rng, 3));
    const std::string path = dir + "/results.json";
    const std::string text = fileText(path);
    auto keys = recordIntegerKeys();
    keys.push_back("format");
    for (int round = 0; round < 300; ++round) {
        Damage damage = kDamages[round % std::size(kDamages)];
        std::string mutated = damaged(text, damage, rng, keys);
        if (mutated.empty())
            continue;
        SCOPED_TRACE("round " + std::to_string(round) + ": " + mutated);
        writeText(path, mutated);
        std::string error =
            fatalMessage([&] { store::loadResults(dir); });
        if (damage != Damage::ByteFlip) {
            EXPECT_FALSE(error.empty());
        }
        if (!error.empty()) {
            EXPECT_NE(error.find(path), std::string::npos) << error;
        }
    }
}

TEST_F(StoreFuzz, MutatedJournalLinesAreSkipped)
{
    std::string dir = freshDir("journal");
    Rng rng(0x5EED0018);
    const std::size_t slots = 4;
    writeStore(dir, edgeResults(rng, slots));
    const std::string path = dir + "/checkpoint.jsonl";
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1 + slots);
    auto keys = recordIntegerKeys();
    keys.push_back("slot");
    for (int round = 0; round < 300; ++round) {
        Damage damage = kDamages[round % std::size(kDamages)];
        std::size_t victim = 1 + rng.range(slots);
        std::string mutated = damaged(lines[victim], damage, rng, keys);
        if (mutated.empty())
            continue;
        SCOPED_TRACE("round " + std::to_string(round) + ": " + mutated);
        std::string journal;
        for (std::size_t i = 0; i < lines.size(); ++i)
            journal += (i == victim ? mutated : lines[i]) + "\n";
        writeText(path, journal);

        store::CheckpointScan scan = store::scanCheckpoint(dir);
        ASSERT_TRUE(scan.headerOk);
        if (damage == Damage::ByteFlip) {
            EXPECT_GE(scan.entries.size() + 1, slots);
            EXPECT_LE(scan.entries.size(), slots);
            continue;
        }
        EXPECT_EQ(scan.entries.size(), slots - 1);
        for (const auto &entry : scan.entries)
            EXPECT_NE(entry.slot, victim - 1);
        // Resume replays the others and would recompute the victim.
        store::ResultStore resumed(dir);
        EXPECT_EQ(resumed.openCheckpoint("fuzz", slots, true).size(),
                  slots - 1);
        resumed.closeCheckpoint();
    }
}

TEST_F(StoreFuzz, MutatedJournalHeadersAreNotOk)
{
    std::string dir = freshDir("header");
    Rng rng(0x5EED0019);
    writeStore(dir, edgeResults(rng, 2));
    const std::string path = dir + "/checkpoint.jsonl";
    const std::string journal = fileText(path);
    const std::string header = journal.substr(0, journal.find('\n'));
    const std::string rest = journal.substr(header.size());
    const std::vector<std::string> keys = {"format", "slots"};
    for (int round = 0; round < 100; ++round) {
        Damage damage = round % 2 ? Damage::BadInteger : Damage::Truncate;
        std::string mutated = damaged(header, damage, rng, keys);
        SCOPED_TRACE(mutated);
        writeText(path, mutated + rest);
        store::CheckpointScan scan = store::scanCheckpoint(dir);
        EXPECT_FALSE(scan.headerOk);
        EXPECT_TRUE(scan.entries.empty());
        EXPECT_FALSE(store::readCheckpointHeader(dir).headerOk);
    }
}

TEST_F(StoreFuzz, MutatedCacheEntriesMiss)
{
    std::string dir = freshDir("cache");
    Rng rng(0x5EED001A);
    store::ResultStore resultStore(dir);
    const std::string key = "fuzzed-entry";
    ArrayResult array = *edgeEvalResult(rng).array;
    resultStore.storeArray(key, array);
    std::string path;
    for (const auto &file : std::filesystem::directory_iterator(dir + "/cache"))
        path = file.path().string();
    const std::string text = fileText(path);

    ArrayResult out;
    ASSERT_EQ(resultStore.lookupArray(key, out),
              store::ResultStore::CacheOutcome::Hit);
    EXPECT_TRUE(store::identical(array, out));

    auto keys = recordIntegerKeys();
    for (int round = 0; round < 300; ++round) {
        Damage damage = kDamages[round % std::size(kDamages)];
        std::string mutated = damaged(text, damage, rng, keys);
        if (mutated.empty())
            continue;
        SCOPED_TRACE("round " + std::to_string(round) + ": " + mutated);
        writeText(path, mutated);
        auto outcome = resultStore.lookupArray(key, out);
        if (damage != Damage::ByteFlip) {
            EXPECT_EQ(outcome, store::ResultStore::CacheOutcome::Miss);
        } else {
            EXPECT_NE(outcome, store::ResultStore::CacheOutcome::HitInvalid);
        }
    }
}

TEST_F(StoreFuzz, MutatedStatsFilesLoadOrNameTheFile)
{
    std::string dir = freshDir("stats");
    store::ResultStore resultStore(dir);
    resultStore.writeStats(store::StoreStats{12, 3, 4, 5, 6});
    const std::string path = dir + "/stats.json";
    const std::string text = fileText(path);
    const std::vector<std::string> keys = {
        "format", "cache_hits", "cache_misses", "cache_stores",
        "checkpoint_loaded", "checkpoint_computed"};
    Rng rng(0x5EED001B);
    for (int round = 0; round < 200; ++round) {
        Damage damage = round % 3 == 0 ? Damage::Truncate
            : round % 3 == 1           ? Damage::BadInteger
                                       : Damage::ByteFlip;
        std::string mutated = damaged(text, damage, rng, keys);
        SCOPED_TRACE("round " + std::to_string(round) + ": " + mutated);
        writeText(path, mutated);
        std::string error = fatalMessage([&] { store::loadStats(dir); });
        if (damage != Damage::ByteFlip) {
            EXPECT_FALSE(error.empty());
        }
        if (!error.empty()) {
            EXPECT_NE(error.find(path), std::string::npos) << error;
        }
    }
}

} // namespace
} // namespace nvmexp
