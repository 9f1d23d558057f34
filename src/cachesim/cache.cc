#include "cachesim/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace nvmexp {

namespace {

/** Does a set's word hold the line with this tag? */
auto
holds(std::uint64_t tag)
{
    return [tag](std::uint64_t word) { return word >> 1 == tag; };
}

} // namespace

Cache::Cache(std::string name, std::size_t capacityBytes, int ways,
             int lineBytes)
    : name_(std::move(name)), ways_(ways), lineBytes_(lineBytes)
{
    if (ways < 1)
        fatal("cache '", name_, "': needs at least 1 way");
    if (lineBytes < 8 || !std::has_single_bit((unsigned)lineBytes))
        fatal("cache '", name_, "': line size must be a power of two");
    std::size_t lines = capacityBytes / (std::size_t)lineBytes;
    if (lines == 0 || lines % (std::size_t)ways != 0)
        fatal("cache '", name_, "': capacity/line/ways mismatch");
    std::size_t numSets = lines / (std::size_t)ways;
    if (!std::has_single_bit(numSets))
        fatal("cache '", name_, "': set count must be a power of two");
    setMask_ = numSets - 1;
    lineShift_ = std::countr_zero((unsigned)lineBytes);
    words_.assign(lines, kEmpty);
}

Cache::AccessResult
Cache::access(std::uint64_t address, MemOp op)
{
    ++stats_.accesses;
    const std::uint64_t tag = address >> lineShift_;
    std::uint64_t *set = words_.data() + setBase(tag);
    std::uint64_t *end = set + ways_;
    std::uint64_t word = tag << 1 | (op == MemOp::Write ? 1 : 0);

    AccessResult result;
    std::uint64_t *line = std::find_if(set, end, holds(tag));
    if (line != end) {
        word |= *line;  // a hit keeps the line's dirty bit
        ++stats_.hits;
        result.hit = true;
    } else {
        // Miss: the set's last word falls out, which is an invalid way
        // unless the set is full.
        ++stats_.misses;
        line = end - 1;
        if (*line != kEmpty) {
            result.evictedLine = (*line >> 1) << lineShift_;
            if (*line & 1) {
                result.evictedDirty = true;
                ++stats_.writebacks;
            }
        }
    }
    // The accessed line becomes the set's most recent.
    std::copy_backward(set, line, line + 1);
    set[0] = word;
    return result;
}

bool
Cache::invalidate(std::uint64_t lineAddress)
{
    const std::uint64_t tag = lineAddress >> lineShift_;
    std::uint64_t *set = words_.data() + setBase(tag);
    std::uint64_t *end = set + ways_;
    std::uint64_t *line = std::find_if(set, end, holds(tag));
    if (line == end)
        return false;
    // Close the gap: the lines behind it keep their recency order.
    std::copy(line + 1, end, line);
    end[-1] = kEmpty;
    return true;
}

bool
Cache::contains(std::uint64_t lineAddress) const
{
    const std::uint64_t tag = lineAddress >> lineShift_;
    const std::uint64_t *set = words_.data() + setBase(tag);
    return std::any_of(set, set + ways_, holds(tag));
}

Hierarchy::Hierarchy(const Config &config)
    : config_(config),
      l1_("L1D", config.l1Bytes, config.l1Ways, config.lineBytes),
      l2_("L2", config.l2Bytes, config.l2Ways, config.lineBytes),
      llc_("LLC", config.llcBytes, config.llcWays, config.lineBytes)
{
}

void
Hierarchy::access(std::uint64_t address, MemOp op)
{
    auto l1r = l1_.access(address, op);
    if (l1r.evictedDirty) {
        // L1 dirty victim lands in L2 (hit by inclusion).
        l2_.access(l1r.evictedLine, MemOp::Write);
    }
    if (l1r.hit)
        return;

    stallCycles_ += config_.l2HitCycles;
    auto l2r = l2_.access(address, op == MemOp::Write ? MemOp::Read : op);
    if (l2r.evictedDirty) {
        ++llcWrites_;
        llc_.access(l2r.evictedLine, MemOp::Write);
    }
    if (l2r.hit)
        return;

    stallCycles_ += config_.llcHitCycles;
    ++llcReads_;
    auto llcr = llc_.access(address, MemOp::Read);
    if (llcr.evictedDirty) {
        ++dramWrites_;
    }
    if (!llcr.hit) {
        stallCycles_ += config_.dramCycles;
        ++dramReads_;
        // The fill writes the new line into the LLC data array.
        ++llcWrites_;
    }
    if (llcr.evictedLine != 0 || llcr.evictedDirty) {
        // Inclusive LLC: back-invalidate upper levels on eviction.
        l1_.invalidate(llcr.evictedLine);
        l2_.invalidate(llcr.evictedLine);
    }
}

void
Hierarchy::retireInstructions(std::uint64_t count)
{
    instructions_ += count;
}

LlcTraffic
Hierarchy::summarize(const std::string &benchmark) const
{
    LlcTraffic t;
    t.benchmark = benchmark;
    t.llcReads = llcReads_;
    t.llcWrites = llcWrites_;
    t.dramReads = dramReads_;
    t.dramWrites = dramWrites_;
    t.instructions = instructions_;
    double cycles = (double)instructions_ * config_.cyclesPerInstr +
        stallCycles_;
    t.execTime = cycles / config_.clockHz;
    return t;
}

} // namespace nvmexp
