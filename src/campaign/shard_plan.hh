/**
 * @file
 * Deterministic partitioning of a sweep's expanded slot index space
 * across N campaign shards.
 *
 * The unit of assignment is one contiguous run of `runLength` slots —
 * the reliability-spec block of one (array, traffic) pair, the same
 * innermost granularity the batched evaluator amortizes over — so a
 * shard always owns whole spec blocks. Assignment is a pure function
 * of (fingerprint, shard count, slot): no characterization, no I/O,
 * no state. Every participant (planner, shard workers, merge, status)
 * recomputes the identical mapping from the manifest alone, which is
 * what makes a campaign safely resumable across processes and hosts.
 */

#ifndef NVMEXP_CAMPAIGN_SHARD_PLAN_HH
#define NVMEXP_CAMPAIGN_SHARD_PLAN_HH

#include <cstddef>
#include <functional>
#include <string>

#include "core/sweep.hh"

namespace nvmexp {
namespace campaign {

/** Most shards one campaign may have: the bound of `--shards`, of
 *  makeShardPlan, and of a manifest's "shard_count", so no reader of a
 *  campaign directory walks an unbounded number of shards. */
constexpr std::size_t kMaxShards = 4096;

struct ShardPlan
{
    /** Fingerprint of the fully workload-expanded sweep. */
    std::string fingerprint;
    /** Contiguous slots per assignment unit (>= 1). */
    std::size_t runLength = 1;
    /** Number of shards (>= 1). */
    std::size_t shardCount = 1;
    /** Fingerprint-derived offset so the unit->shard mapping differs
     *  between sweeps (pure function of fingerprint + shardCount). */
    std::size_t rotation = 0;

    /** Owning shard of one slot. */
    std::size_t shardOf(std::size_t slot) const
    {
        return (slot / runLength + rotation) % shardCount;
    }

    bool owns(std::size_t shard, std::size_t slot) const
    {
        return shardOf(slot) == shard;
    }

    /** Ownership predicate for ParallelSweepRunner::runSelected. */
    std::function<bool(std::size_t)> selector(std::size_t shard) const;

    /** Slots shard owns out of a sweep of `totalSlots`. */
    std::size_t ownedCount(std::size_t shard,
                           std::size_t totalSlots) const;
};

/**
 * Plan a campaign of `shardCount` shards over `config`'s expanded
 * cross product. Derives the fingerprint and the spec-block run
 * length without characterizing anything; fatal() on a shard count
 * outside [1, kMaxShards].
 */
ShardPlan makeShardPlan(const SweepConfig &config,
                        std::size_t shardCount);

} // namespace campaign
} // namespace nvmexp

#endif // NVMEXP_CAMPAIGN_SHARD_PLAN_HH
