#include "campaign/shard_plan.hh"

#include <algorithm>

#include "core/parallel_sweep.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace campaign {

std::function<bool(std::size_t)>
ShardPlan::selector(std::size_t shard) const
{
    if (shard >= shardCount) {
        fatal("shard plan: shard ", shard, " out of range (",
              shardCount, " shards)");
    }
    ShardPlan plan = *this; // self-contained copy for the closure
    return [plan, shard](std::size_t slot) {
        return plan.owns(shard, slot);
    };
}

std::size_t
ShardPlan::ownedCount(std::size_t shard, std::size_t totalSlots) const
{
    std::size_t owned = 0;
    for (std::size_t begin = 0; begin < totalSlots;
         begin += runLength) {
        if (shardOf(begin) == shard)
            owned += std::min(runLength, totalSlots - begin);
    }
    return owned;
}

ShardPlan
makeShardPlan(const SweepConfig &rawConfig, std::size_t shardCount)
{
    if (shardCount == 0 || shardCount > kMaxShards)
        fatal("shard plan: a campaign has 1 to ", kMaxShards, " shards, got ",
              shardCount);
    SweepConfig storage;
    const SweepConfig &config = expandSweepWorkloads(rawConfig, storage);
    ShardPlan plan;
    plan.fingerprint = store::sweepFingerprint(config);
    // One run = the reliability-spec block of one (array, traffic)
    // pair: the slot index is a*(T*S) + t*S + s with specs innermost,
    // so spec blocks are the finest contiguous unit that never splits
    // what the batched evaluator amortizes together.
    plan.runLength =
        std::max<std::size_t>(1, config.reliability.size());
    plan.shardCount = shardCount;
    plan.rotation =
        (std::size_t)(store::fnv1a64(plan.fingerprint) % shardCount);
    return plan;
}

} // namespace campaign
} // namespace nvmexp
