#include "cachesim/cache.hh"

#include <bit>

#include "util/logging.hh"

namespace nvmexp {

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
    tags_.assign(lines, kEmpty);
    // No stamp of an invalid way is ever compared: a miss takes the
    // first invalid way before it compares any.
    stamps_.resize(lines);
}

std::size_t
Cache::find(std::uint64_t tag) const
{
    const std::size_t base = setBase(tag);
    for (std::size_t i = base; i < base + (std::size_t)ways_; ++i)
        if (tags_[i] == tag)
            return i;
    return kAbsent;
}

Cache::AccessResult
Cache::access(std::uint64_t address, MemOp op)
{
    ++clock_;
    ++stats_.accesses;
    const std::uint64_t tag = address >> lineShift_;
    const std::uint64_t dirty = op == MemOp::Write ? 1 : 0;

    AccessResult result;
    if (std::size_t way = find(tag); way != kAbsent) {
        stamps_[way] = clock_ << 1 | (stamps_[way] & 1) | dirty;
        ++stats_.hits;
        result.hit = true;
        return result;
    }

    // Miss: allocate into the first invalid way, else the LRU one.
    ++stats_.misses;
    const std::size_t base = setBase(tag);
    std::size_t victim = base;
    for (std::size_t i = base; i < base + (std::size_t)ways_; ++i) {
        if (tags_[i] == kEmpty) {
            victim = i;
            break;
        }
        if (stamps_[i] < stamps_[victim])
            victim = i;
    }
    if (tags_[victim] != kEmpty) {
        result.evictedLine = tags_[victim] << lineShift_;
        if (stamps_[victim] & 1) {
            result.evictedDirty = true;
            ++stats_.writebacks;
        }
    }
    tags_[victim] = tag;
    stamps_[victim] = clock_ << 1 | dirty;
    return result;
}

bool
Cache::invalidate(std::uint64_t lineAddress)
{
    std::size_t way = find(lineAddress >> lineShift_);
    if (way == kAbsent)
        return false;
    tags_[way] = kEmpty;
    return true;
}

bool
Cache::contains(std::uint64_t lineAddress) const
{
    return find(lineAddress >> lineShift_) != kAbsent;
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
