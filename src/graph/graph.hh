/**
 * @file
 * CSR graph container and R-MAT social-network generator.
 *
 * Stands in for the SNAP graphs the paper uses (ego-Facebook,
 * Wikipedia): R-MAT with the usual skew parameters reproduces the
 * power-law degree distribution that determines graph-kernel memory
 * traffic.
 */

#ifndef NVMEXP_GRAPH_GRAPH_HH
#define NVMEXP_GRAPH_GRAPH_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace nvmexp {

/** Immutable CSR (compressed sparse row) directed graph. */
class Graph
{
  public:
    using Vertex = std::uint32_t;

    /** Build from an edge list; duplicates and self-loops dropped. */
    static Graph fromEdges(Vertex numVertices,
                           std::vector<std::pair<Vertex, Vertex>> edges,
                           bool makeUndirected = true);

    std::size_t numVertices() const { return offsets_.size() - 1; }
    std::size_t numEdges() const { return targets_.size(); }

    /** Out-degree of v. */
    std::size_t degree(Vertex v) const;

    /** Neighbor range of v as [begin, end) indices into targets(). */
    std::pair<std::size_t, std::size_t> neighborRange(Vertex v) const;

    const std::vector<std::size_t> &offsets() const { return offsets_; }
    const std::vector<Vertex> &targets() const { return targets_; }

    /** Bytes of CSR storage (offsets + targets). */
    double storageBytes() const;

  private:
    std::vector<std::size_t> offsets_;
    std::vector<Vertex> targets_;
};

/** Parameters for the R-MAT recursive-matrix generator. */
struct RmatParams
{
    std::size_t numVertices = 1 << 14;
    std::size_t numEdges = 1 << 17;
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;  ///< d = 1 - a - b - c
    std::uint64_t seed = 1;
};

/** Generate an R-MAT graph (undirected, deduplicated). fatal() unless
 *  a, b and c are finite, non-negative and sum below 1. */
Graph generateRmat(const RmatParams &params);

/** Small Facebook-like social graph (~4k vertices, ~81k edges). */
Graph facebookLike(std::uint64_t seed = 7);

/** Larger Wikipedia-like graph (~64k vertices, ~1M edges). */
Graph wikipediaLike(std::uint64_t seed = 13);

} // namespace nvmexp

#endif // NVMEXP_GRAPH_GRAPH_HH
