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
 *                  directories, judged by the merge's own check
 *   loadPlannedConfig  the CLI's config snapshot, checked against the
 *                  plan before `run`, `merge` and `status`
 *
 * Nothing here starts workers: N `campaign run` processes, on one
 * machine or many, run the shards in any order, and a crashed shard
 * is retried by running it again.
 */

#ifndef NVMEXP_CAMPAIGN_CAMPAIGN_HH
#define NVMEXP_CAMPAIGN_CAMPAIGN_HH

#include <string>
#include <vector>

#include "campaign/manifest.hh"
#include "campaign/shard_plan.hh"
#include "core/config.hh"
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
 * The experiment config the CLI's `campaign plan` snapshotted to
 * <dir>/config.json, loaded and checked against the manifest's
 * fingerprint. Fatal naming the file when it is missing or does not
 * load, or when it fingerprints to another sweep than was planned. A
 * config that an older build planned with a run-setting key ("jobs",
 * "out_dir", "resume", "campaign") no longer loads, and the refusal
 * says to plan the campaign again: planning the same design space
 * with the same --dir and --shards keeps every shard's progress. The
 * CLI's `campaign run`, `merge`, and `status` all load the snapshot
 * through here, so `status` refuses exactly what `merge` refuses.
 */
ExperimentConfig loadPlannedConfig(const std::string &dir,
                                   const CampaignManifest &manifest);

/**
 * Run shard `shard` of the campaign in this process: resumes its
 * journal and evaluates its owned slots via `runner`. The shard
 * directory ends up holding checkpoint.jsonl and stats.json, nothing
 * else: its journal is its only copy of the rows and its only record
 * of progress. stats.json is written last, so a worker killed before
 * the end leaves a short journal or no stats.json, which merge and
 * status both report.
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
 * slot counts, no foreign slots, full coverage of the owned slots, a
 * readable stats.json — and refuses with a file+shard diagnostic
 * otherwise (an incomplete shard is re-run, not merged around). Any
 * other file in a shard directory (an older build's shard.json or
 * results.json) is ignored. The merged checkpoint journal is the
 * shard journals' lines in slot order; results.json and results.csv
 * come from the decoded rows through ResultStore::writeResults. All
 * three are byte-identical to a single-process run's; stats.json
 * holds the summed shard counters. campaign.json is only read.
 */
MergeSummary mergeCampaign(const std::string &dir);

/** Read-only progress of one shard. */
struct ShardProgress
{
    std::size_t shard = 0;
    std::size_t doneSlots = 0;    ///< owned slots journaled
    std::size_t ownedSlots = 0;   ///< 0 while the total is unknown
    /** Why mergeCampaign would refuse the shard; empty when it would
     *  accept it. */
    std::string problem;
    /** complete (merge accepts it), partial (some owned slots
     *  journaled), or pending (none). */
    std::string state;
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

/** Progress of every shard, each judged by the check mergeCampaign
 *  runs: a shard is complete exactly when the merge would accept it,
 *  so allComplete() holds exactly when mergeCampaign would succeed.
 *  Neither reads config.json; the CLI checks it for both through
 *  loadPlannedConfig. */
CampaignStatus campaignStatus(const std::string &dir);

} // namespace campaign
} // namespace nvmexp

#endif // NVMEXP_CAMPAIGN_CAMPAIGN_HH
