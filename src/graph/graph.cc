#include "graph/graph.hh"

#include <algorithm>

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

    // Bucket every kept edge (and its mirror) by source, then sort and
    // deduplicate each adjacency list: the CSR a global sort of the
    // edge list would give, without sorting across sources.
    Graph g;
    g.offsets_.assign((std::size_t)numVertices + 1, 0);
    for (const auto &[src, dst] : edges) {
        if (!kept(src, dst))
            continue;
        ++g.offsets_[(std::size_t)src + 1];
        if (makeUndirected)
            ++g.offsets_[(std::size_t)dst + 1];
    }
    for (std::size_t v = 1; v <= numVertices; ++v)
        g.offsets_[v] += g.offsets_[v - 1];
    g.targets_.resize(g.offsets_.back());
    std::vector<std::size_t> cursor(g.offsets_.begin(),
                                    g.offsets_.end() - 1);
    for (const auto &[src, dst] : edges) {
        if (!kept(src, dst))
            continue;
        g.targets_[cursor[src]++] = dst;
        if (makeUndirected)
            g.targets_[cursor[dst]++] = src;
    }

    // Compact the deduplicated lists leftwards in place.
    Vertex *targets = g.targets_.data();
    std::size_t begin = 0;
    std::size_t out = 0;
    for (std::size_t v = 0; v < numVertices; ++v) {
        const std::size_t end = g.offsets_[v + 1];
        std::sort(targets + begin, targets + end);
        Vertex *last = std::unique(targets + begin, targets + end);
        if (out != begin)  // out <= begin: a leftward, forward copy
            std::copy(targets + begin, last, targets + out);
        g.offsets_[v] = out;
        out += (std::size_t)(last - (targets + begin));
        begin = end;
    }
    g.offsets_[numVertices] = out;
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
    if (params.a + params.b + params.c >= 1.0)
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
            double u = rng.uniform();
            src <<= 1;
            dst <<= 1;
            if (u < params.a) {
                // top-left quadrant
            } else if (u < params.a + params.b) {
                dst |= 1;
            } else if (u < params.a + params.b + params.c) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
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
