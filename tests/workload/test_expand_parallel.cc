/**
 * @file
 * Parallel workload expansion against its serial definition: for a
 * mixed spec list (an LLC suite, one LLC profile, a graph kernel, a
 * KV store, a two-pattern WAL and an intermittent-wrapped LLC),
 * expandWorkloads at 1, 2, 4 and 8 jobs must give exactly the
 * concatenation of trafficFromWorkloadJson over the specs, name by
 * name and bit pattern by bit pattern. A malformed spec fails on the
 * calling thread, before any generation, with the serial message.
 * The suite name matches the TSan preset's "workload" filter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace {

using workload::TrafficContext;

std::vector<JsonValue>
specs(const std::vector<std::string> &texts)
{
    std::vector<JsonValue> out;
    for (const auto &text : texts)
        out.push_back(JsonValue::parse(text));
    return out;
}

const std::vector<std::string> kMixed = {
    R"({"name": "llc", "benchmark": "suite", "instructions": 2e4,
        "warmup": 5e3})",
    R"({"name": "llc", "benchmark": "mcf", "instructions": 3e4,
        "warmup": 1e4, "llc_mib": 1})",
    R"({"name": "graph", "graph": "facebook", "kernel": "components"})",
    R"({"name": "kv-store", "ops_per_sec": 2e6, "zipf_skew": 0.8})",
    R"({"name": "wal", "commits_per_sec": 5e4})",
    R"({"name": "intermittent", "duty_cycle": 0.25,
        "inner": {"name": "llc", "benchmark": "lbm",
                  "instructions": 2e4, "warmup": 5e3}})",
};

/** The definition: each spec expanded alone, in order, one thread. */
std::vector<TrafficPattern>
serialExpansion(const std::vector<JsonValue> &list,
                const TrafficContext &context)
{
    std::vector<TrafficPattern> out;
    for (const auto &spec : list) {
        auto patterns = workload::trafficFromWorkloadJson(spec, context);
        out.insert(out.end(), patterns.begin(), patterns.end());
    }
    return out;
}

std::uint64_t
bits(double value)
{
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

class ExpandParallelTest : public testsupport::QuietTest
{
};

TEST_F(ExpandParallelTest, EveryJobCountEqualsSerialExpansion)
{
    TrafficContext context;
    context.wordBits = 256;
    auto list = specs(kMixed);
    auto expected = serialExpansion(list, context);
    // 10 suite profiles, mcf, CC, kv, WAL steady + checkpoint, and
    // the wrapped lbm.
    ASSERT_EQ(expected.size(), 16u);

    for (int jobs : {1, 2, 4, 8}) {
        auto actual = workload::expandWorkloads(list, context, jobs);
        ASSERT_EQ(actual.size(), expected.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(actual[i].name, expected[i].name)
                << "jobs " << jobs << " pattern " << i;
            EXPECT_EQ(bits(actual[i].readsPerSec),
                      bits(expected[i].readsPerSec))
                << "jobs " << jobs << " " << expected[i].name;
            EXPECT_EQ(bits(actual[i].writesPerSec),
                      bits(expected[i].writesPerSec))
                << "jobs " << jobs << " " << expected[i].name;
            EXPECT_EQ(bits(actual[i].execTime), bits(expected[i].execTime))
                << "jobs " << jobs << " " << expected[i].name;
        }
    }
}

TEST_F(ExpandParallelTest, EmptyListExpandsToNothing)
{
    EXPECT_TRUE(workload::expandWorkloads({}, TrafficContext{}, 4).empty());
}

// The second spec's instruction budget is below the schema's minimum.
const std::vector<std::string> kSecondMalformed = {
    R"({"name": "kv-store"})",
    R"({"name": "llc", "benchmark": "gcc", "instructions": 5})",
    R"({"name": "wal"})",
};

TEST_F(ExpandParallelTest, MalformedSpecFailsWithTheSerialMessage)
{
    auto list = specs(kSecondMalformed);
    const char *message =
        "workload 'llc': parameter 'instructions' = 5 out of range";
    EXPECT_EXIT(serialExpansion(list, TrafficContext{}),
                ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(workload::expandWorkloads(list, TrafficContext{}, 4),
                ::testing::ExitedWithCode(1), message);
}

TEST_F(ExpandParallelTest, ValidationRunsOnTheCallingThread)
{
    // A caller's guard sees the schema error as a FatalError even at
    // 4 jobs: no spec reaches a pool worker before every spec passed.
    auto list = specs(kSecondMalformed);
    ScopedFatalThrows guard;
    try {
        workload::expandWorkloads(list, TrafficContext{}, 4);
        FAIL() << "malformed spec accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("parameter 'instructions'"),
                  std::string::npos)
            << error.what();
    }
    // A wrapped inner spec is validated up front as well.
    auto wrapped = specs({R"({"name": "intermittent",
                              "inner": {"name": "llc", "warmup": -1}})"});
    EXPECT_THROW(workload::expandWorkloads(wrapped, TrafficContext{}, 4),
                 FatalError);
}

} // namespace
} // namespace nvmexp
