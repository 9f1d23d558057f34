#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "cachesim/cache.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

TEST(Cache, HitAfterFill)
{
    Cache c("t", 1024, 2, 64);  // 8 sets x 2 ways
    EXPECT_FALSE(c.access(0x1000, MemOp::Read).hit);
    EXPECT_TRUE(c.access(0x1000, MemOp::Read).hit);
    EXPECT_TRUE(c.access(0x1020, MemOp::Read).hit);  // same line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c("t", 2 * 64, 2, 64);  // one set, two ways
    c.access(0 * 64, MemOp::Read);
    c.access(1 * 64, MemOp::Read);
    c.access(0 * 64, MemOp::Read);        // touch 0 -> 1 becomes LRU
    auto r = c.access(2 * 64, MemOp::Read);
    EXPECT_EQ(r.evictedLine, 1ull * 64);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c("t", 2 * 64, 2, 64);
    c.access(0 * 64, MemOp::Write);
    c.access(1 * 64, MemOp::Read);
    auto r = c.access(2 * 64, MemOp::Read);  // evicts dirty line 0
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedLine, 0ull);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ReadThenWriteMarksDirty)
{
    Cache c("t", 2 * 64, 2, 64);
    c.access(0, MemOp::Read);
    c.access(0, MemOp::Write);
    c.access(64, MemOp::Read);
    auto r = c.access(128, MemOp::Read);
    EXPECT_TRUE(r.evictedDirty);  // line 0 was dirtied by the write
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c("t", 1024, 2, 64);
    c.access(0x40, MemOp::Write);
    EXPECT_TRUE(c.contains(0x40));
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40));  // already gone
}

TEST(Cache, SetIndexingSeparatesConflicts)
{
    Cache c("t", 4096, 1, 64);  // 64 direct-mapped sets
    // Two addresses in different sets should not evict each other.
    c.access(0 * 64, MemOp::Read);
    c.access(1 * 64, MemOp::Read);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
    // Same set (stride = numSets * line) conflicts.
    c.access(64ull * 64, MemOp::Read);
    EXPECT_FALSE(c.contains(0));
}

TEST(CacheDeath, ValidatesGeometry)
{
    EXPECT_EXIT(Cache("bad", 1024, 0, 64),
                ::testing::ExitedWithCode(1), "way");
    EXPECT_EXIT(Cache("bad", 1024, 2, 48),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(Cache("bad", 96, 2, 64), ::testing::ExitedWithCode(1),
                "mismatch");
}

TEST(Cache, StatsMissRate)
{
    Cache c("t", 1024, 2, 64);
    c.access(0, MemOp::Read);
    c.access(0, MemOp::Read);
    c.access(4096, MemOp::Read);
    EXPECT_NEAR(c.stats().missRate(), 2.0 / 3.0, 1e-12);
}

/** Reference LRU cache: one list per set, most recent line first. */
class NaiveLru
{
  public:
    NaiveLru(std::size_t sets, int ways, int lineBytes)
        : sets_(sets), ways_((std::size_t)ways), lineBytes_(lineBytes)
    {
    }

    Cache::AccessResult
    access(std::uint64_t address, MemOp op)
    {
        ++stats.accesses;
        std::uint64_t tag = address / lineBytes_;
        auto &set = setOf(tag);
        bool write = op == MemOp::Write;
        Cache::AccessResult result;
        auto line = find(set, tag);
        if (line != set.end()) {
            ++stats.hits;
            result.hit = true;
            Line hit{tag, line->dirty || write};
            set.erase(line);
            set.push_front(hit);
            return result;
        }
        ++stats.misses;
        if (set.size() == ways_) {
            result.evictedLine = set.back().tag * lineBytes_;
            if (set.back().dirty) {
                result.evictedDirty = true;
                ++stats.writebacks;
            }
            set.pop_back();
        }
        set.push_front({tag, write});
        return result;
    }

    bool
    invalidate(std::uint64_t lineAddress)
    {
        auto &set = setOf(lineAddress / lineBytes_);
        auto line = find(set, lineAddress / lineBytes_);
        if (line == set.end())
            return false;
        set.erase(line);
        return true;
    }

    bool
    contains(std::uint64_t lineAddress)
    {
        auto &set = setOf(lineAddress / lineBytes_);
        return find(set, lineAddress / lineBytes_) != set.end();
    }

    CacheStats stats;

  private:
    struct Line
    {
        std::uint64_t tag;
        bool dirty;
    };

    std::list<Line> &setOf(std::uint64_t tag)
    {
        return sets_[tag % sets_.size()];
    }

    static std::list<Line>::iterator
    find(std::list<Line> &set, std::uint64_t tag)
    {
        return std::find_if(set.begin(), set.end(), [tag](const Line &l) {
            return l.tag == tag;
        });
    }

    std::vector<std::list<Line>> sets_;
    std::size_t ways_;
    std::uint64_t lineBytes_;
};

TEST(Cache, MatchesNaivePerSetLruLists)
{
    Rng rng(2024);
    for (int geometry = 0; geometry < 300; ++geometry) {
        int ways = 1 + (int)rng.range(16);
        std::size_t sets = std::size_t{1} << rng.range(7);   // 1..64
        int lineBytes = 8 << rng.range(5);                    // 8..128
        Cache cache("t", sets * (std::size_t)ways * (std::size_t)lineBytes,
                    ways, lineBytes);
        NaiveLru naive(sets, ways, lineBytes);
        // A footprint of up to three times the capacity, placed low,
        // mid-range or against the top of the address space (where a
        // line's tag is widest).
        std::uint64_t span =
            (1 + rng.range(3 * sets * (std::size_t)ways)) *
            (std::uint64_t)lineBytes;
        std::uint64_t regions[] = {0, std::uint64_t{1} << 40,
                                   ~std::uint64_t{0} - span + 1};
        std::uint64_t base = regions[rng.range(3)];
        SCOPED_TRACE(::testing::Message()
                     << "geometry " << geometry << ": " << sets
                     << " sets x " << ways << " ways x " << lineBytes
                     << " B, base " << base << ", span " << span);
        for (int op = 0; op < 4000; ++op) {
            std::uint64_t address = base + rng.range(span);
            std::uint64_t kind = rng.range(20);
            if (kind < 3) {
                ASSERT_EQ(cache.invalidate(address),
                          naive.invalidate(address)) << "op " << op;
            } else if (kind < 6) {
                ASSERT_EQ(cache.contains(address),
                          naive.contains(address)) << "op " << op;
            } else {
                MemOp memOp = rng.range(2) ? MemOp::Write : MemOp::Read;
                auto got = cache.access(address, memOp);
                auto want = naive.access(address, memOp);
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                ASSERT_EQ(got.evictedDirty, want.evictedDirty)
                    << "op " << op;
                ASSERT_EQ(got.evictedLine, want.evictedLine)
                    << "op " << op;
            }
        }
        EXPECT_EQ(cache.stats().accesses, naive.stats.accesses);
        EXPECT_EQ(cache.stats().hits, naive.stats.hits);
        EXPECT_EQ(cache.stats().misses, naive.stats.misses);
        EXPECT_EQ(cache.stats().writebacks, naive.stats.writebacks);
    }
}

} // namespace
} // namespace nvmexp
