/**
 * @file
 * Distributed sweep campaigns: one sweep's cross product sharded
 * across worker processes, each writing an ordinary result store,
 * then merged into one canonical store byte-identical to what a
 * single-process `--out` run of the same config would have produced.
 *
 * Lifecycle (see campaign/manifest.hh for the directory layout):
 *
 *   planCampaign   write the immutable manifest (fingerprint, shard
 *                  count, granularity); idempotent for an identical
 *                  plan, fatal for a conflicting one
 *   runShard       one worker process: resumes its shard's journal and
 *                  evaluates exactly the slots the ShardPlan assigns
 *                  it (safe to kill at any byte — the next attempt
 *                  resumes from the journal, exactly like --resume)
 *   mergeCampaign  validate every shard journal (fingerprint, slot
 *                  coverage) and write <dir>/merged from the journal
 *                  entries
 *   campaignStatus read-only progress snapshot from the shard
 *                  directories
 *
 * Nothing here starts workers: N `campaign run` processes, on one
 * machine or many, run the shards in any order, and a crashed shard
 * is retried by running it again.
 */

#ifndef NVMEXP_CAMPAIGN_CAMPAIGN_HH
#define NVMEXP_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/manifest.hh"
#include "campaign/shard_plan.hh"
#include "core/parallel_sweep.hh"

namespace nvmexp {
namespace campaign {

/** Shared characterization cache of campaign `dir`. */
std::string campaignCacheDir(const std::string &dir);

/** The canonical merged store of campaign `dir`. */
std::string mergedDir(const std::string &dir);

/**
 * Create campaign `dir` and write its manifest for `shardCount`
 * shards of `config`'s sweep. Re-planning an existing campaign is a
 * no-op when fingerprint/shard count/granularity all match (so a
 * script can always plan first) and fatal otherwise.
 */
CampaignManifest planCampaign(const std::string &dir,
                              const SweepConfig &config,
                              std::size_t shardCount);

/**
 * Run shard `shard` of the campaign in this process: bumps the
 * shard's attempt counter, resumes its journal, evaluates its owned
 * slots via `runner`, and marks the shard complete. The shard
 * directory ends up holding checkpoint.jsonl, stats.json, and
 * shard.json, nothing else: its journal is its only copy of the rows.
 * `config` must be the campaign's sweep (fingerprint-checked against
 * the manifest); its outDir/cacheDir/resume are overridden with the
 * shard directory, the campaign's shared cache, and true. Returns the
 * shard's owned rows in ascending slot order. Shards may run at the
 * same time: each writes only its own shard directory and the shared
 * cache, whose entries are written atomically.
 */
std::vector<EvalResult> runShard(const std::string &dir,
                                 const SweepConfig &config,
                                 std::size_t shard,
                                 const ParallelSweepRunner &runner);

/** What mergeCampaign produced (for logging and tests). */
struct MergeSummary
{
    std::size_t totalSlots = 0;
    std::size_t shardCount = 0;
    store::StoreStats stats; ///< summed over the shards' stats.json
};

/**
 * Merge every shard journal into <dir>/merged. Validates per shard —
 * journal header present with the campaign fingerprint, identical
 * slot counts, no foreign slots, full coverage of the owned slots,
 * stats.json present — and refuses with a file+shard diagnostic
 * otherwise (an incomplete shard is re-run, not merged around). Any
 * other file in a shard directory is ignored. The merged checkpoint
 * journal is the shard journals' lines in slot order; results.json and
 * results.csv come from the decoded rows through
 * ResultStore::writeResults. All three are byte-identical to a
 * single-process run's; stats.json holds the summed shard counters.
 * campaign.json is only read.
 */
MergeSummary mergeCampaign(const std::string &dir);

/** Read-only progress of one shard. */
struct ShardProgress
{
    std::size_t shard = 0;
    std::uint64_t attempts = 0;
    bool completed = false;       ///< worker reached the end
    std::size_t doneSlots = 0;    ///< journaled (valid) slots
    std::size_t ownedSlots = 0;   ///< 0 while the total is unknown
    std::string state;            ///< pending | partial | complete
};

/** Read-only snapshot of a whole campaign. */
struct CampaignStatus
{
    CampaignManifest manifest;
    std::size_t totalSlots = 0;   ///< 0 until some shard journaled
    bool merged = false;          ///< merged/results.json exists
    std::vector<ShardProgress> shards;

    bool allComplete() const;
};

CampaignStatus campaignStatus(const std::string &dir);

} // namespace campaign
} // namespace nvmexp

#endif // NVMEXP_CAMPAIGN_CAMPAIGN_HH
