#include "graph/graph.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"

namespace nvmexp {

Graph
Graph::fromEdges(Vertex numVertices,
                 std::vector<std::pair<Vertex, Vertex>> edges,
                 bool makeUndirected)
{
    if (numVertices == 0)
        fatal("graph needs at least one vertex");
    auto kept = [numVertices](Vertex src, Vertex dst) {
        return src != dst && src < numVertices && dst < numVertices;
    };

    // Count every kept arc (an edge, and its mirror when undirected)
    // by source and by target.
    const std::size_t n = numVertices;
    Graph g;
    g.offsets_.assign(n + 1, 0);
    std::vector<std::size_t> byTarget(n + 1, 0);
    for (const auto &[src, dst] : edges) {
        if (!kept(src, dst))
            continue;
        ++g.offsets_[(std::size_t)src + 1];
        ++byTarget[(std::size_t)dst + 1];
        if (makeUndirected) {
            ++g.offsets_[(std::size_t)dst + 1];
            ++byTarget[(std::size_t)src + 1];
        }
    }
    for (std::size_t v = 1; v <= n; ++v) {
        g.offsets_[v] += g.offsets_[v - 1];
        byTarget[v] += byTarget[v - 1];
    }

    // Two counting passes sort every adjacency list: bucket each arc's
    // source under its target, then deal the targets in ascending
    // order into their sources' lists.
    std::vector<Vertex> sources(byTarget[n]);
    std::vector<std::size_t> cursor(byTarget.begin(), byTarget.end() - 1);
    for (const auto &[src, dst] : edges) {
        if (!kept(src, dst))
            continue;
        sources[cursor[dst]++] = src;
        if (makeUndirected)
            sources[cursor[src]++] = dst;
    }
    // Free the edge list first, so at most two arc-sized arrays live
    // at once.
    edges.clear();
    edges.shrink_to_fit();
    g.targets_.resize(g.offsets_[n]);
    cursor.assign(g.offsets_.begin(), g.offsets_.end() - 1);
    for (std::size_t t = 0; t < n; ++t)
        for (std::size_t i = byTarget[t]; i < byTarget[t + 1]; ++i)
            g.targets_[cursor[sources[i]]++] = (Vertex)t;

    // Drop each list's (adjacent) duplicates, compacting leftwards in
    // place.
    Vertex *targets = g.targets_.data();
    std::size_t begin = 0;
    std::size_t out = 0;
    for (std::size_t v = 0; v < n; ++v) {
        const std::size_t end = g.offsets_[v + 1];
        Vertex *last = std::unique(targets + begin, targets + end);
        if (out != begin)  // out <= begin: a leftward, forward copy
            std::copy(targets + begin, last, targets + out);
        g.offsets_[v] = out;
        out += (std::size_t)(last - (targets + begin));
        begin = end;
    }
    g.offsets_[n] = out;
    g.targets_.resize(out);
    return g;
}

std::size_t
Graph::degree(Vertex v) const
{
    auto [begin, end] = neighborRange(v);
    return end - begin;
}

std::pair<std::size_t, std::size_t>
Graph::neighborRange(Vertex v) const
{
    if ((std::size_t)v + 1 >= offsets_.size())
        fatal("vertex ", v, " out of range");
    return {offsets_[v], offsets_[v + 1]};
}

double
Graph::storageBytes() const
{
    return (double)offsets_.size() * sizeof(std::size_t) +
        (double)targets_.size() * sizeof(Vertex);
}

Graph
generateRmat(const RmatParams &params)
{
    // The branch-free quadrant draw below needs ordered thresholds.
    for (auto [name, p] : {std::pair{"a", params.a},
                           std::pair{"b", params.b},
                           std::pair{"c", params.c}}) {
        if (!std::isfinite(p) || p < 0.0)
            fatal("R-MAT probability ", name,
                  " must be finite and non-negative, got ", p);
    }
    const double ab = params.a + params.b;
    const double abc = ab + params.c;
    if (abc >= 1.0)
        fatal("R-MAT probabilities must sum below 1");
    if (params.numVertices < 2)
        fatal("R-MAT needs at least 2 vertices");

    // Round the vertex count up to a power of two for recursion, then
    // fold back into range.
    std::size_t scale = 1;
    while (((std::size_t)1 << scale) < params.numVertices)
        ++scale;

    Rng rng(params.seed);
    std::vector<std::pair<Graph::Vertex, Graph::Vertex>> edges;
    edges.reserve(params.numEdges);
    for (std::size_t e = 0; e < params.numEdges; ++e) {
        std::size_t src = 0, dst = 0;
        for (std::size_t level = 0; level < scale; ++level) {
            // Quadrant 0..3 is top-left, top-right, bottom-left,
            // bottom-right: its high bit picks the source half, its low
            // bit the target half.
            const double u = rng.uniform();
            const unsigned q = (unsigned)(u >= params.a) +
                (unsigned)(u >= ab) + (unsigned)(u >= abc);
            src = src << 1 | q >> 1;
            dst = dst << 1 | (q & 1);
        }
        src %= params.numVertices;
        dst %= params.numVertices;
        edges.emplace_back((Graph::Vertex)src, (Graph::Vertex)dst);
    }
    return Graph::fromEdges((Graph::Vertex)params.numVertices,
                            std::move(edges));
}

Graph
facebookLike(std::uint64_t seed)
{
    RmatParams p;
    p.numVertices = 4096;
    p.numEdges = 81920;
    p.seed = seed;
    return generateRmat(p);
}

Graph
wikipediaLike(std::uint64_t seed)
{
    RmatParams p;
    p.numVertices = 1 << 16;
    p.numEdges = 1 << 20;
    p.seed = seed;
    return generateRmat(p);
}

} // namespace nvmexp
