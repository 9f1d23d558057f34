/**
 * @file
 * Golden pins for the traffic simulators: every SPEC-like suite
 * profile's LlcTraffic (the four counters, the instruction count and
 * the bit pattern of execTime), digests of the two generated social
 * graphs' CSR arrays, and the "graph" workload's kernel traffic bits.
 *
 * No shipped config runs the "llc" or "graph" plugins, so the sweep
 * goldens cannot see a drift in these numbers; this suite can. The
 * values were recorded from the simulator as it stood before its cache
 * layout and graph construction were rewritten for speed, and every
 * rewrite since must reproduce them bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "cachesim/streams.hh"
#include "graph/graph.hh"
#include "util/json.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace {

std::uint64_t
bits(double value)
{
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

struct LlcGolden
{
    const char *benchmark;
    std::uint64_t llcReads;
    std::uint64_t llcWrites;
    std::uint64_t dramReads;
    std::uint64_t dramWrites;
    std::uint64_t instructions;
    std::uint64_t execTimeBits;
};

void
expectTraffic(const LlcTraffic &t, const LlcGolden &golden)
{
    EXPECT_EQ(t.benchmark, golden.benchmark);
    EXPECT_EQ(t.llcReads, golden.llcReads) << golden.benchmark;
    EXPECT_EQ(t.llcWrites, golden.llcWrites) << golden.benchmark;
    EXPECT_EQ(t.dramReads, golden.dramReads) << golden.benchmark;
    EXPECT_EQ(t.dramWrites, golden.dramWrites) << golden.benchmark;
    EXPECT_EQ(t.instructions, golden.instructions) << golden.benchmark;
    EXPECT_EQ(bits(t.execTime), golden.execTimeBits) << golden.benchmark;
}

// 2e5 instructions after 5e4 of warmup, default 16 MiB hierarchy.
const LlcGolden kSuiteShort[] = {
    {"perlbench", 2711u, 2711u, 2711u, 0u, 200000u,
     0x3f3ed365ff4987efull},
    {"x264", 17963u, 18074u, 11810u, 0u, 200000u,
     0x3f55539313dd465bull},
    {"deepsjeng", 33190u, 29032u, 16661u, 0u, 200000u,
     0x3f5dd47689996b9cull},
    {"gcc", 49005u, 48647u, 31403u, 0u, 200000u,
     0x3f68f98a2e2ac9c2ull},
    {"xz", 55183u, 66304u, 43066u, 0u, 200000u,
     0x3f6fe9d0fac00b5aull},
    {"omnetpp", 64513u, 71944u, 53278u, 0u, 200000u,
     0x3f73631eb3496e08ull},
    {"mcf", 71329u, 86689u, 67880u, 0u, 200000u,
     0x3f77d0c593dc7f5bull},
    {"lbm", 75781u, 111325u, 75122u, 0u, 200000u,
     0x3f7a199bd7b1a77cull},
    {"fotonik3d", 67744u, 90299u, 66533u, 0u, 200000u,
     0x3f772faa1493e3a5ull},
    {"cactuBSSN", 64505u, 83940u, 59041u, 0u, 200000u,
     0x3f74edf91d12902cull}
};

TEST(SimulatorGolden, EverySuiteProfileAtShortBudget)
{
    const auto &suite = specLikeSuite();
    ASSERT_EQ(suite.size(), std::size(kSuiteShort));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        expectTraffic(runBenchmark(suite[i], 200'000, 50'000,
                                   Hierarchy::Config{}),
                      kSuiteShort[i]);
    }
}

// Same budget on a 1 MiB LLC: the larger working sets now evict from
// the LLC, so its victim choice, dirty write-backs and inclusive
// back-invalidation all reach the counters.
const LlcGolden kSuiteSmallLlc[] = {
    {"perlbench", 2711u, 2711u, 2711u, 0u, 200000u,
     0x3f3ed365ff4987efull},
    {"x264", 20311u, 23071u, 17256u, 934u, 200000u,
     0x3f5bc9dd2b66de2dull},
    {"deepsjeng", 33448u, 32766u, 21105u, 3829u, 200000u,
     0x3f615ec0e9a8b9b1ull},
    {"gcc", 49256u, 56115u, 39883u, 10752u, 200000u,
     0x3f6da225ee3a43dcull},
    {"xz", 55232u, 73581u, 50962u, 18516u, 200000u,
     0x3f721d904aa75a0eull},
    {"omnetpp", 64523u, 79860u, 61476u, 16167u, 200000u,
     0x3f75a0576a91b5e7ull},
    {"mcf", 71329u, 89450u, 70676u, 17455u, 200000u,
     0x3f789439f2532d37ull},
    {"lbm", 75781u, 111852u, 75675u, 35480u, 200000u,
     0x3f7a404429bc7de2ull},
    {"fotonik3d", 67745u, 91246u, 67513u, 22183u, 200000u,
     0x3f77742f7151458cull},
    {"cactuBSSN", 64510u, 87826u, 63154u, 22441u, 200000u,
     0x3f760d9002e45850ull}
};

TEST(SimulatorGolden, EverySuiteProfileOnSmallLlc)
{
    Hierarchy::Config config;
    config.llcBytes = 1024 * 1024;
    const auto &suite = specLikeSuite();
    ASSERT_EQ(suite.size(), std::size(kSuiteSmallLlc));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        expectTraffic(runBenchmark(suite[i], 200'000, 50'000, config),
                      kSuiteSmallLlc[i]);
    }
}

TEST(SimulatorGolden, PerlbenchAtFullBudget)
{
    // The 20M + 5M budget the Fig. 9 study runs every profile at.
    const LlcGolden golden = {"perlbench", 0u, 0u, 0u, 0u, 20000000u,
                              0x3f99f517aad2b830ull};
    expectTraffic(runBenchmark(profileByName("perlbench"), 20'000'000,
                               5'000'000, Hierarchy::Config{}),
                  golden);
}

/** FNV-1a over the CSR arrays (offsets as 64-bit, targets 32-bit). */
std::uint64_t
csrDigest(const Graph &g)
{
    std::uint64_t hash = 14695981039346656037ull;
    auto mix = [&](std::uint64_t value) {
        hash = (hash ^ value) * 1099511628211ull;
    };
    for (std::size_t offset : g.offsets())
        mix(offset);
    for (Graph::Vertex target : g.targets())
        mix(target);
    return hash;
}

TEST(SimulatorGolden, SocialGraphCsr)
{
    Graph facebook = facebookLike();
    EXPECT_EQ(facebook.numVertices(), 4096u);
    EXPECT_EQ(facebook.numEdges(), 116514u);
    EXPECT_EQ(csrDigest(facebook), 0x9ad98866337f259dull);

    Graph wikipedia = wikipediaLike();
    EXPECT_EQ(wikipedia.numVertices(), 65536u);
    EXPECT_EQ(wikipedia.numEdges(), 1818884u);
    EXPECT_EQ(csrDigest(wikipedia), 0x3cc5c29f236b3335ull);
}

struct KernelGolden
{
    const char *graph;
    const char *kernel;
    const char *name;
    std::uint64_t readsBits;
    std::uint64_t writesBits;
    std::uint64_t execTimeBits;
};

TEST(SimulatorGolden, GraphWorkloadKernels)
{
    const KernelGolden goldens[] = {
        {"facebook", "bfs", "Facebook-BFS", 0x41ccf84392a9ade3ull,
         0x417aa42daaca438bull, 0x3f302cef8874bf56ull},
        {"facebook", "pagerank", "Facebook-PageRank",
         0x41c3de4355555555ull, 0x41b3de4355555555ull,
         0x3f7da42005590555ull},
        {"facebook", "components", "Facebook-CC", 0x41cd7eb0cda4c44aull,
         0x4163ad0c96ceed57ull, 0x3f47f5c67c61e183ull},
        {"wikipedia", "bfs", "Wikipedia-BFS", 0x41cd1351cc44ce28ull,
         0x4177426677663afcull, 0x3f6f5413dc088797ull},
    };
    workload::TrafficContext context;
    context.wordBits = 64;
    for (const auto &golden : goldens) {
        std::string spec = std::string("{\"name\": \"graph\", ") +
            "\"graph\": \"" + golden.graph + "\", \"kernel\": \"" +
            golden.kernel + "\"}";
        auto patterns = workload::trafficFromWorkloadJson(
            JsonValue::parse(spec), context);
        ASSERT_EQ(patterns.size(), 1u) << spec;
        EXPECT_EQ(patterns[0].name, golden.name);
        EXPECT_EQ(bits(patterns[0].readsPerSec), golden.readsBits) << spec;
        EXPECT_EQ(bits(patterns[0].writesPerSec), golden.writesBits)
            << spec;
        EXPECT_EQ(bits(patterns[0].execTime), golden.execTimeBits) << spec;
    }
}

} // namespace
} // namespace nvmexp
