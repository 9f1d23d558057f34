/**
 * @file
 * Set-associative cache hierarchy simulator.
 *
 * Plays the role Sniper + SPEC CPU2017 play in the paper (Sec. IV-C):
 * producing LLC read/write access counts and execution times per
 * benchmark. The hierarchy is L1D -> L2 -> LLC, write-back /
 * write-allocate, LRU, with an inclusive LLC.
 */

#ifndef NVMEXP_CACHESIM_CACHE_HH
#define NVMEXP_CACHESIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nvmexp {

/** Access type at any level. */
enum class MemOp { Read, Write };

/** Per-cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;  ///< dirty evictions sent downstream

    double missRate() const
    {
        return accesses ? (double)misses / (double)accesses : 0.0;
    }
};

/**
 * One set-associative, write-back, write-allocate cache with LRU
 * replacement.
 *
 * Each set is one run of `ways` words in a flat array, kept in recency
 * order: the most recently used line first, the least recently used
 * last, then the set's invalid ways. A word is the line's tag shifted
 * left one bit with its dirty flag in bit 0, so a lookup scans only
 * the set's words, no set owns a heap block of its own, and the LRU
 * victim of a full set is its last word.
 */
class Cache
{
  public:
    /**
     * @param name for reporting
     * @param capacityBytes total capacity
     * @param ways associativity
     * @param lineBytes line size (power of two)
     */
    Cache(std::string name, std::size_t capacityBytes, int ways,
          int lineBytes);

    /** Result of a lookup at this level. */
    struct AccessResult
    {
        bool hit = false;
        bool evictedDirty = false;
        std::uint64_t evictedLine = 0;  ///< line address (byte, aligned)
    };

    /**
     * Access a byte address; on a miss the line is allocated (caller
     * handles the downstream fill) and the returned eviction info
     * propagates dirty victims. A miss evicts only from a full set,
     * and then its least recently used line.
     */
    AccessResult access(std::uint64_t address, MemOp op);

    /** Invalidate a line if present (for inclusive-LLC back-inval). */
    bool invalidate(std::uint64_t lineAddress);

    /** Is the line currently resident? */
    bool contains(std::uint64_t lineAddress) const;

    const CacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }
    int lineBytes() const { return lineBytes_; }
    std::size_t numSets() const { return (std::size_t)setMask_ + 1; }
    int ways() const { return ways_; }

  private:
    /** Word of an invalid way: a line's word is its tag (the address
     *  shifted right by the line size, at least 8 B) shifted left one,
     *  plus its dirty bit, so none reaches it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Index of the first word of the set `tag` maps to. */
    std::size_t setBase(std::uint64_t tag) const
    {
        return (std::size_t)(tag & setMask_) * (std::size_t)ways_;
    }

    std::string name_;
    int ways_;
    int lineBytes_;
    int lineShift_;
    std::uint64_t setMask_;
    std::vector<std::uint64_t> words_;
    CacheStats stats_;
};

/** LLC-level traffic summary produced by the hierarchy. */
struct LlcTraffic
{
    std::string benchmark;
    std::uint64_t llcReads = 0;      ///< lookups from L2 misses
    std::uint64_t llcWrites = 0;     ///< L2 writebacks + LLC fills
    std::uint64_t dramReads = 0;     ///< LLC miss fills
    std::uint64_t dramWrites = 0;    ///< LLC dirty writebacks
    double execTime = 0.0;           ///< modeled seconds of execution
    std::uint64_t instructions = 0;
};

/**
 * Three-level hierarchy: private L1D and L2 feeding a shared LLC.
 * Timing: a simple in-order model where each instruction costs one
 * cycle plus miss penalties (used only to produce execution-time
 * denominators for traffic rates, as in the paper).
 */
class Hierarchy
{
  public:
    struct Config
    {
        std::size_t l1Bytes = 32 * 1024;
        int l1Ways = 8;
        std::size_t l2Bytes = 512 * 1024;
        int l2Ways = 8;
        std::size_t llcBytes = 16 * 1024 * 1024;
        int llcWays = 16;
        int lineBytes = 64;
        double clockHz = 3e9;
        double cyclesPerInstr = 0.75;   ///< base CPI without misses
        double l2HitCycles = 12.0;
        double llcHitCycles = 40.0;
        double dramCycles = 200.0;
    };

    explicit Hierarchy(const Config &config);

    /** Issue one memory access (byte address). */
    void access(std::uint64_t address, MemOp op);

    /** Account non-memory instructions for the timing model. */
    void retireInstructions(std::uint64_t count);

    /** Summarize LLC traffic for rate extraction. */
    LlcTraffic summarize(const std::string &benchmark) const;

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

  private:
    Config config_;
    Cache l1_;
    Cache l2_;
    Cache llc_;
    std::uint64_t instructions_ = 0;
    std::uint64_t llcReads_ = 0;
    std::uint64_t llcWrites_ = 0;
    std::uint64_t dramReads_ = 0;
    std::uint64_t dramWrites_ = 0;
    double stallCycles_ = 0.0;
};

} // namespace nvmexp

#endif // NVMEXP_CACHESIM_CACHE_HH
