#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

Graph
triangle()
{
    return Graph::fromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
}

TEST(Graph, UndirectedEdgesAreMirrored)
{
    Graph g = triangle();
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 6u);  // each edge in both directions
    for (Graph::Vertex v = 0; v < 3; ++v)
        EXPECT_EQ(g.degree(v), 2u);
}

TEST(Graph, DirectedKeepsOrientation)
{
    Graph g = Graph::fromEdges(3, {{0, 1}, {0, 2}}, false);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, DuplicatesAndSelfLoopsDropped)
{
    Graph g = Graph::fromEdges(
        3, {{0, 1}, {0, 1}, {1, 1}, {2, 2}}, false);
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(Graph, OffsetsAreMonotone)
{
    Graph g = facebookLike();
    const auto &offsets = g.offsets();
    for (std::size_t i = 1; i < offsets.size(); ++i)
        EXPECT_LE(offsets[i - 1], offsets[i]);
    EXPECT_EQ(offsets.back(), g.numEdges());
}

TEST(Graph, NeighborRangeCoversTargets)
{
    Graph g = triangle();
    auto [begin, end] = g.neighborRange(0);
    EXPECT_EQ(end - begin, 2u);
    for (std::size_t i = begin; i < end; ++i)
        EXPECT_LT(g.targets()[i], 3u);
}

TEST(Graph, StorageBytesPositive)
{
    EXPECT_GT(triangle().storageBytes(), 0.0);
}

TEST(GraphDeath, OutOfRangeVertexIsFatal)
{
    Graph g = triangle();
    EXPECT_EXIT(g.neighborRange(7), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(GraphDeath, EmptyGraphIsFatal)
{
    EXPECT_EXIT(Graph::fromEdges(0, {}), ::testing::ExitedWithCode(1),
                "at least one vertex");
}

TEST(Graph, OutOfRangeEdgesDropped)
{
    Graph g = Graph::fromEdges(2, {{0, 1}, {0, 5}, {9, 1}}, false);
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(Graph, FromEdgesMatchesMirrorSortUnique)
{
    using Edge = std::pair<Graph::Vertex, Graph::Vertex>;
    Rng rng(99);
    for (int trial = 0; trial < 400; ++trial) {
        auto n = (Graph::Vertex)(1 + rng.range(64));
        bool undirected = trial % 2 == 0;
        // Endpoints reach past n (dropped), and a small n makes
        // self-loops and duplicates common.
        std::vector<Edge> edges(rng.range(6 * (std::uint64_t)n + 1));
        for (auto &[src, dst] : edges) {
            src = (Graph::Vertex)rng.range((std::uint64_t)n + 2);
            dst = (Graph::Vertex)rng.range((std::uint64_t)n + 2);
        }
        if (rng.range(4) == 0)
            edges.emplace_back(0xFFFFFFFFu, 0);

        std::vector<Edge> arcs;
        for (auto [src, dst] : edges) {
            if (src == dst || src >= n || dst >= n)
                continue;
            arcs.emplace_back(src, dst);
            if (undirected)
                arcs.emplace_back(dst, src);
        }
        std::sort(arcs.begin(), arcs.end());
        arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
        std::vector<std::size_t> offsets(n + 1, 0);
        std::vector<Graph::Vertex> targets;
        for (auto [src, dst] : arcs) {
            ++offsets[src + 1];
            targets.push_back(dst);
        }
        for (std::size_t v = 1; v <= n; ++v)
            offsets[v] += offsets[v - 1];

        Graph g = Graph::fromEdges(n, edges, undirected);
        EXPECT_EQ(g.offsets(), offsets) << "trial " << trial;
        EXPECT_EQ(g.targets(), targets) << "trial " << trial;
    }
}

} // namespace
} // namespace nvmexp
