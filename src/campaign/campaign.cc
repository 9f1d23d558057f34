#include "campaign/campaign.hh"

#include <filesystem>
#include <map>
#include <set>

#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace campaign {

std::string
campaignCacheDir(const std::string &dir)
{
    return dir + "/cache";
}

std::string
mergedDir(const std::string &dir)
{
    return dir + "/merged";
}

CampaignManifest
planCampaign(const std::string &dir, const SweepConfig &config,
             std::size_t shardCount)
{
    ShardPlan plan = makeShardPlan(config, shardCount);
    std::error_code ec;
    std::filesystem::create_directories(campaignCacheDir(dir), ec);
    if (ec) {
        fatal("campaign plan: cannot create '", dir, "': ",
              ec.message());
    }
    if (std::filesystem::exists(dir + "/campaign.json")) {
        CampaignManifest existing = loadManifest(dir);
        if (existing.fingerprint == plan.fingerprint &&
            existing.shardCount == shardCount &&
            existing.granularity == plan.runLength) {
            return existing; // identical re-plan: keep all progress
        }
        fatal("campaign plan: '", dir,
              "' already holds a different campaign (fingerprint ",
              existing.fingerprint, ", ", existing.shardCount,
              " shards vs requested ", plan.fingerprint, ", ",
              shardCount, "); use a fresh directory");
    }
    CampaignManifest manifest;
    manifest.fingerprint = plan.fingerprint;
    manifest.shardCount = shardCount;
    manifest.granularity = plan.runLength;
    // The one write of campaign.json: the plan never changes after it.
    manifest.toJson().writeFile(dir + "/campaign.json");
    return manifest;
}

std::vector<EvalResult>
runShard(const std::string &dir, const SweepConfig &config,
         std::size_t shard, const ParallelSweepRunner &runner)
{
    CampaignManifest manifest = loadManifest(dir);
    if (shard >= manifest.shardCount) {
        fatal("campaign run: shard ", shard, " out of range (",
              manifest.shardCount, " shards)");
    }
    ShardPlan planned = makeShardPlan(config, manifest.shardCount);
    if (planned.fingerprint != manifest.fingerprint) {
        fatal("campaign run: sweep fingerprint ", planned.fingerprint,
              " does not match campaign fingerprint ",
              manifest.fingerprint,
              " (config edited after `campaign plan`?)");
    }
    std::string shardDir = dir + "/" + shardDirName(shard);
    std::error_code ec;
    std::filesystem::create_directories(shardDir, ec);
    if (ec) {
        fatal("campaign run: cannot create '", shardDir, "': ",
              ec.message());
    }
    // The attempt is recorded before any work so a kill at any point
    // still shows in the shard's attempt count.
    ShardState state = loadShardState(shardDir, manifest.fingerprint);
    ++state.attempts;
    state.completed = false;
    saveShardState(shardDir, manifest.fingerprint, shard,
                   manifest.shardCount, state);

    SweepConfig shardConfig = config;
    shardConfig.outDir = shardDir;
    shardConfig.cacheDir = campaignCacheDir(dir);
    shardConfig.resume = true; // shard retries always resume
    auto rows =
        runner.runSelected(shardConfig,
                           manifest.plan().selector(shard));

    state.completed = true;
    saveShardState(shardDir, manifest.fingerprint, shard,
                   manifest.shardCount, state);
    return rows;
}

MergeSummary
mergeCampaign(const std::string &dir)
{
    CampaignManifest manifest = loadManifest(dir);
    ShardPlan plan = manifest.plan();
    MergeSummary summary;
    summary.shardCount = manifest.shardCount;

    bool haveSlots = false;
    std::size_t totalSlots = 0;
    std::map<std::size_t, store::CheckpointEntry> journal; // by slot

    for (std::size_t k = 0; k < manifest.shardCount; ++k) {
        std::string shardDir = dir + "/" + shardDirName(k);
        std::string context = "campaign merge: shard " +
            std::to_string(k) + " ('" + shardDir + "')";

        store::CheckpointScan scan = store::scanCheckpoint(shardDir);
        if (!scan.headerOk) {
            fatal(context, ": checkpoint journal missing or "
                  "unreadable; run the shard first");
        }
        if (scan.format != store::kFormatVersion) {
            fatal(context, ": journal written with format ",
                  scan.format, ", this build reads format ",
                  store::kFormatVersion);
        }
        if (scan.fingerprint != manifest.fingerprint) {
            fatal(context, ": journal fingerprint ", scan.fingerprint,
                  " does not match campaign fingerprint ",
                  manifest.fingerprint);
        }
        if (!haveSlots) {
            totalSlots = scan.slots;
            haveSlots = true;
        } else if (scan.slots != totalSlots) {
            fatal(context, ": journal claims ", scan.slots,
                  " slots where other shards claim ", totalSlots);
        }
        // Within one journal a re-journaled slot resolves exactly as
        // resume replay does: the last valid entry wins.
        std::map<std::size_t, store::CheckpointEntry> mine;
        for (auto &entry : scan.entries) {
            std::size_t owner = plan.shardOf(entry.slot);
            if (owner != k) {
                fatal(context, ": journal carries slot ", entry.slot,
                      ", which the plan assigns to shard ", owner);
            }
            mine[entry.slot] = std::move(entry);
        }
        std::size_t owned = plan.ownedCount(k, totalSlots);
        if (mine.size() != owned) {
            fatal(context, ": incomplete — ", mine.size(), " of ",
                  owned, " owned slots journaled; re-run the shard "
                  "(it resumes from the journal)");
        }
        journal.merge(mine);

        if (!std::filesystem::exists(shardDir + "/stats.json")) {
            fatal(context, ": stats.json missing (worker did not "
                  "finish); re-run the shard");
        }
        store::StoreStats stats = store::loadStats(shardDir);
        summary.stats.cacheHits += stats.cacheHits;
        summary.stats.cacheMisses += stats.cacheMisses;
        summary.stats.cacheStores += stats.cacheStores;
        summary.stats.checkpointLoaded += stats.checkpointLoaded;
        summary.stats.checkpointComputed += stats.checkpointComputed;
    }
    if (journal.size() != totalSlots) {
        panic("campaign merge: collected ", journal.size(),
              " slots for a sweep of ", totalSlots);
    }

    // The canonical journal is the shard journals' raw lines in slot
    // order: the byte sequence a single -j1 process would have
    // journaled. One buffered write: per-line flushing is for
    // crash-durability of in-flight sweeps, which a merge of finished
    // shards doesn't need. The results artifacts come from the rows
    // the scan decoded, through the writer every store uses.
    std::string buffer =
        store::checkpointHeaderLine(manifest.fingerprint, totalSlots);
    buffer += '\n';
    std::vector<EvalResult> results;
    results.reserve(totalSlots);
    for (auto &[slot, entry] : journal) {
        buffer += entry.line;
        buffer += '\n';
        results.push_back(std::move(entry.result));
    }
    std::string outDir = mergedDir(dir);
    store::ResultStore merged(outDir, campaignCacheDir(dir));
    writeFileAtomically(outDir + "/checkpoint.jsonl", buffer);
    merged.writeResults(results);
    merged.writeStats(summary.stats);

    summary.totalSlots = totalSlots;
    return summary;
}

bool
CampaignStatus::allComplete() const
{
    for (const auto &shard : shards)
        if (!shard.completed)
            return false;
    return true;
}

CampaignStatus
campaignStatus(const std::string &dir)
{
    CampaignStatus status;
    status.manifest = loadManifest(dir);
    ShardPlan plan = status.manifest.plan();
    status.merged =
        std::filesystem::exists(mergedDir(dir) + "/results.json");

    // Two passes: the sweep's total slot count is only known from a
    // journal header, and per-shard owned counts need it.
    std::vector<std::size_t> doneSlots(status.manifest.shardCount, 0);
    for (std::size_t k = 0; k < status.manifest.shardCount; ++k) {
        std::string shardDir = dir + "/" + shardDirName(k);
        store::CheckpointScan scan = store::scanCheckpoint(shardDir);
        if (!scan.headerOk || scan.format != store::kFormatVersion ||
            scan.fingerprint != status.manifest.fingerprint)
            continue;
        if (status.totalSlots == 0)
            status.totalSlots = scan.slots;
        std::set<std::size_t> seen;
        for (const auto &entry : scan.entries)
            if (plan.shardOf(entry.slot) == k)
                seen.insert(entry.slot);
        doneSlots[k] = seen.size();
    }
    for (std::size_t k = 0; k < status.manifest.shardCount; ++k) {
        std::string shardDir = dir + "/" + shardDirName(k);
        ShardState state =
            loadShardState(shardDir, status.manifest.fingerprint);
        ShardProgress progress;
        progress.shard = k;
        progress.attempts = state.attempts;
        progress.completed = state.completed;
        progress.doneSlots = doneSlots[k];
        progress.ownedSlots = status.totalSlots
            ? plan.ownedCount(k, status.totalSlots)
            : 0;
        progress.state = state.completed ? "complete"
            : (progress.doneSlots ? "partial" : "pending");
        status.shards.push_back(std::move(progress));
    }
    return status;
}

} // namespace campaign
} // namespace nvmexp
