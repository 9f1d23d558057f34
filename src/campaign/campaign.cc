#include "campaign/campaign.hh"

#include <filesystem>
#include <map>
#include <optional>

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
    store::writeJsonFile(dir + "/campaign.json", manifest);
    return manifest;
}

ExperimentConfig
loadPlannedConfig(const std::string &dir, const CampaignManifest &manifest)
{
    const std::string path = dir + "/config.json";
    ExperimentConfig config;
    try {
        ScopedFatalThrows guard;
        config = loadExperimentFile(path);
    } catch (const FatalError &error) {
        fatal("campaign: ", error.what(), "; plan the campaign again "
              "from a config this build loads (the same design space, "
              "--dir and --shards keep every shard's progress)");
    }
    ShardPlan plan = makeShardPlan(config.sweep, manifest.shardCount);
    if (plan.fingerprint != manifest.fingerprint) {
        fatal("campaign: '", path, "' now fingerprints to ",
              plan.fingerprint, ", the campaign was planned for ",
              manifest.fingerprint,
              " (config edited after `campaign plan`?)");
    }
    return config;
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
    SweepConfig shardConfig = config;
    shardConfig.outDir = shardDir;
    shardConfig.cacheDir = campaignCacheDir(dir);
    shardConfig.resume = true; // shard retries always resume
    return runner.runSelected(shardConfig,
                              manifest.plan().selector(shard));
}

namespace {

/** One shard directory as merge and status both judge it. */
struct ShardCheck
{
    /** Why merge refuses the shard; empty when it accepts it. */
    std::string problem;
    /** The sweep's slot count, once the journal header is of this
     *  campaign and agrees with the earlier shards'. */
    std::optional<std::size_t> slots;
    /** The owned slots journaled. Within one journal a re-journaled
     *  slot resolves exactly as resume replay does: the last valid
     *  entry wins. */
    std::map<std::size_t, store::CheckpointEntry> entries;
    store::StoreStats stats; ///< the shard's stats.json
};

/**
 * Check shard `k` of campaign `dir`: a journal header of this store
 * format and the campaign fingerprint, claiming the `totalSlots` the
 * earlier shards claim (if any did), no slot the plan assigns to
 * another shard, every owned slot journaled, and a readable
 * stats.json. The first failure is the problem.
 */
ShardCheck
checkShard(const std::string &dir, const CampaignManifest &manifest,
           const ShardPlan &plan, std::size_t k,
           std::optional<std::size_t> totalSlots)
{
    ShardCheck check;
    std::string shardDir = dir + "/" + shardDirName(k);
    store::CheckpointScan scan = store::scanCheckpoint(shardDir);
    if (!scan.headerOk) {
        check.problem = "checkpoint journal missing or unreadable; run "
                        "the shard first";
        return check;
    }
    if (scan.format != store::kFormatVersion) {
        check.problem = "journal written with format " +
            std::to_string(scan.format) + ", this build reads format " +
            std::to_string(store::kFormatVersion);
        return check;
    }
    if (scan.fingerprint != manifest.fingerprint) {
        check.problem = "journal fingerprint " + scan.fingerprint +
            " does not match campaign fingerprint " +
            manifest.fingerprint;
        return check;
    }
    if (totalSlots && scan.slots != *totalSlots) {
        check.problem = "journal claims " + std::to_string(scan.slots) +
            " slots where other shards claim " +
            std::to_string(*totalSlots);
        return check;
    }
    check.slots = scan.slots;
    for (auto &entry : scan.entries) {
        std::size_t owner = plan.shardOf(entry.slot);
        if (owner == k) {
            check.entries[entry.slot] = std::move(entry);
        } else if (check.problem.empty()) {
            check.problem = "journal carries slot " +
                std::to_string(entry.slot) +
                ", which the plan assigns to shard " +
                std::to_string(owner);
        }
    }
    if (!check.problem.empty())
        return check;
    std::size_t owned = plan.ownedCount(k, scan.slots);
    if (check.entries.size() != owned) {
        check.problem = "incomplete — " +
            std::to_string(check.entries.size()) + " of " +
            std::to_string(owned) + " owned slots journaled; re-run "
            "the shard (it resumes from the journal)";
        return check;
    }
    if (!std::filesystem::exists(shardDir + "/stats.json")) {
        check.problem = "stats.json missing (worker did not finish); "
                        "re-run the shard";
        return check;
    }
    try {
        ScopedFatalThrows guard;
        check.stats = store::loadStats(shardDir);
    } catch (const FatalError &error) {
        check.problem = error.what();
    }
    return check;
}

} // namespace

MergeSummary
mergeCampaign(const std::string &dir)
{
    CampaignManifest manifest = loadManifest(dir);
    ShardPlan plan = manifest.plan();
    MergeSummary summary;
    summary.shardCount = manifest.shardCount;

    std::optional<std::size_t> claimed;
    std::map<std::size_t, store::CheckpointEntry> journal; // by slot

    for (std::size_t k = 0; k < manifest.shardCount; ++k) {
        ShardCheck check = checkShard(dir, manifest, plan, k, claimed);
        if (!check.problem.empty()) {
            fatal("campaign merge: shard ", k, " ('", dir, "/",
                  shardDirName(k), "'): ", check.problem);
        }
        claimed = check.slots;
        journal.merge(check.entries);
        summary.stats.cacheHits += check.stats.cacheHits;
        summary.stats.cacheMisses += check.stats.cacheMisses;
        summary.stats.cacheStores += check.stats.cacheStores;
        summary.stats.checkpointLoaded += check.stats.checkpointLoaded;
        summary.stats.checkpointComputed +=
            check.stats.checkpointComputed;
    }
    const std::size_t totalSlots = claimed.value_or(0);
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
        if (!shard.problem.empty())
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

    std::optional<std::size_t> claimed;
    for (std::size_t k = 0; k < status.manifest.shardCount; ++k) {
        ShardCheck check =
            checkShard(dir, status.manifest, plan, k, claimed);
        if (!claimed)
            claimed = check.slots;
        ShardProgress progress;
        progress.shard = k;
        progress.problem = std::move(check.problem);
        progress.doneSlots = check.entries.size();
        progress.state = progress.problem.empty() ? "complete"
            : (progress.doneSlots ? "partial" : "pending");
        status.shards.push_back(std::move(progress));
    }
    // Owned counts need the sweep's slot count, which only a journal
    // header carries, possibly a later shard's.
    status.totalSlots = claimed.value_or(0);
    for (auto &progress : status.shards) {
        progress.ownedSlots = claimed
            ? plan.ownedCount(progress.shard, *claimed)
            : 0;
    }
    return status;
}

} // namespace campaign
} // namespace nvmexp
