/**
 * @file
 * Seeded fuzz of the config loader, in the style of
 * tests/util/test_json_fuzz.cc (fixed seed, bounded rounds): every
 * shipped config under config/ is mutated (truncated, byte-flipped,
 * numbers set to 2.5 / -1 / 1e300 / NaN / Infinity and friends, values
 * swapped for other kinds, unknown or repeated keys, the "workloads"
 * specs included) and loaded through loadExperimentFile under a
 * ScopedFatalThrows guard. Every outcome is a FatalError whose message
 * names the file or an offset into it, or a loaded config whose
 * capacities are finite and buildable and whose explicit traffic is
 * finite, so a run can neither reject them without naming the file nor
 * turn them into NaN rows or an empty table. Nothing crashes and
 * nothing hangs. A differential inserts an unknown member into every
 * object of every seed, which must be refused naming it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "core/config.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

namespace fs = std::filesystem;

struct Seed
{
    std::string name;  ///< file name under config/
    std::string text;
};

/** The shipped configs, sorted by name. */
const std::vector<Seed> &
shippedConfigs()
{
    static const std::vector<Seed> seeds = [] {
        std::vector<fs::path> paths;
        for (const auto &entry :
             fs::directory_iterator(NVMEXP_SOURCE_DIR "/config"))
            if (entry.path().extension() == ".json")
                paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end());
        std::vector<Seed> out;
        for (const auto &path : paths) {
            std::ifstream in(path, std::ios::binary);
            out.push_back({path.filename().string(),
                           std::string(std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>())});
        }
        return out;
    }();
    return seeds;
}

/** A token of the JSON text: [begin, begin + size). */
struct Token
{
    std::size_t begin = 0;
    std::size_t size = 0;
};

/** Number and string tokens (a string is a key when ':' follows). */
struct Tokens
{
    std::vector<Token> numbers;
    std::vector<Token> strings;
    std::vector<Token> keys;
};

Tokens
tokenize(const std::string &text)
{
    Tokens out;
    for (std::size_t i = 0; i < text.size();) {
        char c = text[i];
        if (c == '"') {
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '"')
                j += text[j] == '\\' ? 2 : 1;
            j = std::min(j + 1, text.size());
            std::size_t k = j;
            while (k < text.size() && (text[k] == ' ' || text[k] == '\n'))
                ++k;
            bool key = k < text.size() && text[k] == ':';
            (key ? out.keys : out.strings).push_back({i, j - i});
            i = j;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            std::size_t j = i + 1;
            while (j < text.size() &&
                   std::string("0123456789.eE+-").find(text[j]) !=
                       std::string::npos)
                ++j;
            out.numbers.push_back({i, j - i});
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

/** Numbers a user may write where a count, rate or size belongs. */
const char *const kHostileNumbers[] = {
    "2.5", "-1", "0", "-0", "1e300", "-1e300", "NaN", "Infinity",
    "-Infinity", "1e-320", "9007199254740993", "4294967296", "65536",
};

/** Values of the wrong kind for almost any slot. */
const char *const kHostileValues[] = {
    "null", "true", "\"\"", "\"x\"", "[]", "{}", "[1, 2]",
    "{\"name\": 1}", "[\"STT-Opt\", 5]", "\"study-set\"",
};

std::string
pick(Rng &rng, const std::vector<Token> &tokens, std::string text,
     const std::string &replacement)
{
    if (tokens.empty())
        return text;
    const Token &t = tokens[rng.range(tokens.size())];
    text.replace(t.begin, t.size, replacement);
    return text;
}

/** One mutation of `text`. */
std::string
mutated(Rng &rng, std::string text)
{
    Tokens tokens = tokenize(text);
    auto hostileNumber = [&] {
        return std::string(
            kHostileNumbers[rng.range(std::size(kHostileNumbers))]);
    };
    auto hostileValue = [&] {
        return std::string(
            kHostileValues[rng.range(std::size(kHostileValues))]);
    };
    switch (rng.range(7)) {
      case 0: // cut short anywhere
        text.resize(rng.range(text.size() + 1));
        return text;
      case 1: // a few bytes set to anything
        for (std::uint64_t n = 1 + rng.range(4); n > 0; --n)
            text[rng.range(text.size())] = (char)rng.range(256);
        return text;
      case 2: // a number set to a hostile one
        return pick(rng, tokens.numbers, text, hostileNumber());
      case 3: // a number or a string value of the wrong kind
        return pick(rng,
                    rng.range(2) ? tokens.numbers : tokens.strings, text,
                    hostileValue());
      case 4: // a string value set to a hostile number
        return pick(rng, tokens.strings, text, hostileNumber());
      case 5: { // an unknown key in some object
        std::size_t at = text.find('{', rng.range(text.size()));
        if (at == std::string::npos)
            at = text.find('{');
        text.insert(at + 1, "\"zz_unknown\": 1, ");
        return text;
      }
      default: { // a key repeated in front of itself
        if (tokens.keys.empty())
            return text;
        const Token &key = tokens.keys[rng.range(tokens.keys.size())];
        text.insert(key.begin,
                    text.substr(key.begin, key.size) + ": " +
                        hostileNumber() + ", ");
        return text;
      }
    }
}

/** Does a rejection name the config file or an offset into it? */
bool
namesItsSource(const std::string &message, const std::string &path)
{
    return message.find(path) != std::string::npos ||
        (message.find("line ") != std::string::npos &&
         message.find("column ") != std::string::npos);
}

class ConfigFuzzTest : public testsupport::QuietTest
{
  protected:
    /** What a loaded config promises the sweep: capacities and
     *  explicit traffic that no run can reject or turn into NaN. */
    static void
    expectRunnable(const ExperimentConfig &config, const std::string &text)
    {
        for (double bytes : config.sweep.capacitiesBytes)
            EXPECT_TRUE(std::isfinite(bytes) &&
                        bytes >= ArrayConfig::kMinCapacityBytes)
                << "capacity " << bytes << " accepted from:\n" << text;
        for (const auto &t : config.sweep.traffics) {
            EXPECT_TRUE(std::isfinite(t.readsPerSec) &&
                        std::isfinite(t.writesPerSec) &&
                        std::isfinite(t.execTime))
                << "traffic '" << t.name << "' (" << t.readsPerSec
                << ", " << t.writesPerSec << ", " << t.execTime
                << ") accepted from:\n" << text;
        }
    }

    /** Load `text` from a file named `name`; "" when it loads, else
     *  the FatalError message. */
    std::string
    load(const std::string &name, const std::string &text)
    {
        std::string path = ::testing::TempDir() + "nvmexp_fuzz_" + name;
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }
        ScopedFatalThrows guard;
        try {
            expectRunnable(loadExperimentFile(path), text);
            return "";
        } catch (const FatalError &error) {
            std::string message = error.what();
            EXPECT_FALSE(message.empty()) << text;
            EXPECT_TRUE(namesItsSource(message, path))
                << "rejection names neither " << path
                << " nor an offset: " << message << "\n--- input:\n"
                << text;
            return message;
        }
    }
};

TEST_F(ConfigFuzzTest, EveryShippedConfigLoadsUnmutated)
{
    ASSERT_EQ(shippedConfigs().size(), 8u);
    for (const auto &seed : shippedConfigs())
        EXPECT_EQ(load(seed.name, seed.text), "") << seed.name;
}

/** A seed the shipped configs lack: a custom cell object. */
const char *const kCustomCellSeed = R"({
    "experiment": "custom-cell",
    "cells": ["SRAM", {"name": "hero", "base": "STT-Opt",
                       "write_pulse_ns": 2, "endurance": 1e12}],
    "capacities_mib": [2],
    "traffic": [{"name": "t", "reads": 1e5, "writes": 1e4}]
})";

/** Differential: a member no table declares, inserted into any object
 *  of any seed at any depth (custom cells, traffic entries, grids,
 *  clause objects, top_k, the reliability block, workload specs and
 *  their nested specs), is refused naming it, its line and its column.
 *  At the parent the nested ones were dropped and the config loaded. */
TEST_F(ConfigFuzzTest, UnknownMemberAtAnyDepthIsRefusedByName)
{
    std::vector<Seed> seeds = shippedConfigs();
    seeds.push_back({"custom_cell.json", kCustomCellSeed});
    std::size_t checked = 0;
    for (const Seed &seed : seeds) {
        EXPECT_EQ(load(seed.name, seed.text), "") << seed.name;
        for (std::size_t at : testsupport::objectOpenings(seed.text)) {
            std::string where;
            std::string text =
                testsupport::unknownMemberAt(seed.text, at, where);
            std::string error = load(seed.name, text);
            EXPECT_NE(error.find(where + ": "), std::string::npos)
                << seed.name << " at " << at << ": " << error;
            EXPECT_NE(error.find(testsupport::kUnknownMember),
                      std::string::npos)
                << seed.name << " at " << at << ": " << error;
            ++checked;
        }
    }
    EXPECT_GT(checked, 25u);
}

TEST_F(ConfigFuzzTest, MutatedConfigsLoadOrFailByName)
{
    Rng rng(0xC0F16);
    std::size_t rejected = 0, loaded = 0;
    for (int round = 0; round < 1500; ++round) {
        const Seed &seed =
            shippedConfigs()[rng.range(shippedConfigs().size())];
        std::string text = mutated(rng, seed.text);
        if (rng.range(4) == 0)
            text = mutated(rng, text);  // sometimes two mutations
        (load(seed.name, text).empty() ? loaded : rejected) += 1;
        if (HasFailure())
            return;  // one counterexample is enough
    }
    // Both outcomes occur: the mutations reach past the parser.
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(loaded, 10u);
}

} // namespace
} // namespace nvmexp
