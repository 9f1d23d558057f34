#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "graph/graph.hh"

namespace nvmexp {
namespace {

TEST(Rmat, RespectsRequestedSize)
{
    RmatParams p;
    p.numVertices = 1024;
    p.numEdges = 8192;
    Graph g = generateRmat(p);
    EXPECT_EQ(g.numVertices(), 1024u);
    // Undirected doubling minus dedup/self-loop losses.
    EXPECT_GT(g.numEdges(), 8192u);
    EXPECT_LE(g.numEdges(), 2u * 8192u);
}

TEST(Rmat, DeterministicUnderSeed)
{
    RmatParams p;
    p.numVertices = 512;
    p.numEdges = 2048;
    p.seed = 99;
    Graph a = generateRmat(p);
    Graph b = generateRmat(p);
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.targets(), b.targets());
}

TEST(Rmat, SeedsProduceDifferentGraphs)
{
    RmatParams p;
    p.numVertices = 512;
    p.numEdges = 2048;
    p.seed = 1;
    Graph a = generateRmat(p);
    p.seed = 2;
    Graph b = generateRmat(p);
    EXPECT_NE(a.targets(), b.targets());
}

TEST(Rmat, DegreeDistributionIsSkewed)
{
    RmatParams p;
    p.numVertices = 1 << 12;
    p.numEdges = 1 << 15;
    Graph g = generateRmat(p);
    std::size_t maxDeg = 0;
    for (Graph::Vertex v = 0; v < g.numVertices(); ++v)
        maxDeg = std::max(maxDeg, g.degree(v));
    double avgDeg = (double)g.numEdges() / (double)g.numVertices();
    // Power-law hubs: the max degree dwarfs the average.
    EXPECT_GT((double)maxDeg, 10.0 * avgDeg);
}

TEST(RmatDeath, RejectsBadProbabilities)
{
    RmatParams p;
    p.a = 0.5;
    p.b = 0.3;
    p.c = 0.3;
    EXPECT_EXIT(generateRmat(p), ::testing::ExitedWithCode(1),
                "probabilities");
}

TEST(RmatDeath, RefusesNegativeOrNonFiniteProbabilitiesByName)
{
    const double bad[] = {-0.1, std::nan(""), HUGE_VAL, -HUGE_VAL};
    const std::pair<const char *, double RmatParams::*> members[] = {
        {"a", &RmatParams::a}, {"b", &RmatParams::b},
        {"c", &RmatParams::c}};
    for (double value : bad) {
        for (auto [name, member] : members) {
            RmatParams p;
            p.numVertices = 8;
            p.numEdges = 8;
            p.*member = value;
            EXPECT_EXIT(generateRmat(p), ::testing::ExitedWithCode(1),
                        std::string("R-MAT probability ") + name +
                            " must be finite and non-negative")
                << name << " = " << value;
        }
    }
}

TEST(BuiltinGraphs, HaveDocumentedScale)
{
    Graph fb = facebookLike();
    EXPECT_EQ(fb.numVertices(), 4096u);
    EXPECT_GT(fb.numEdges(), 80000u);

    Graph wiki = wikipediaLike();
    EXPECT_EQ(wiki.numVertices(), (std::size_t)1 << 16);
    EXPECT_GT(wiki.numEdges(), 1000000u);
}

} // namespace
} // namespace nvmexp
