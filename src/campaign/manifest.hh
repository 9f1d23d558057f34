/**
 * @file
 * The campaign manifest (campaign.json) and per-shard progress files
 * (shard.json).
 *
 * A campaign directory looks like:
 *
 *   <dir>/campaign.json        versioned manifest: sweep fingerprint,
 *                              shard table with status/attempts
 *   <dir>/config.json          verbatim copy of the experiment config
 *                              (CLI campaigns; programmatic ones skip
 *                              it)
 *   <dir>/cache/               ONE characterization cache shared by
 *                              every shard and the merged store
 *   <dir>/shards/shard-<k>/    an ordinary result store per shard
 *                              (checkpoint journal, results.json/.csv,
 *                              stats.json) plus its shard.json
 *   <dir>/merged/              the canonical merged store
 *
 * Single-writer discipline: campaign.json is written only by `plan`
 * and `merge`. A shard worker writes only inside its own shard
 * directory — its store plus shard.json ({attempts, completed}) — and
 * the shared cache, so concurrent workers never race on a shared file
 * other than cache entries. Both files are written atomically
 * (write-then-rename); a torn shard.json reads as "no progress" and
 * simply causes a redundant (resume, hence cheap) retry.
 */

#ifndef NVMEXP_CAMPAIGN_MANIFEST_HH
#define NVMEXP_CAMPAIGN_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard_plan.hh"
#include "util/json.hh"

namespace nvmexp {
namespace campaign {

/** Version of the campaign.json/shard.json schema itself, separate
 *  from the store format the fingerprint is defined over. */
constexpr int kCampaignFormatVersion = 1;

/** One row of the manifest's shard table. */
struct ShardEntry
{
    std::size_t id = 0;        ///< its store is shardDirName(id)
    std::string status;        ///< "pending" | "partial" | "complete"
    std::uint64_t attempts = 0;
};

struct CampaignManifest
{
    std::string fingerprint;
    std::size_t shardCount = 0;
    std::size_t granularity = 1; ///< ShardPlan::runLength
    std::vector<ShardEntry> shards;

    /** Reconstruct the slot->shard mapping (pure function of the
     *  manifest fields). */
    ShardPlan plan() const;

    JsonValue toJson() const;
    /** Validating parse; fatal() naming `context` and the key on any
     *  structural problem (wrong versions, inconsistent shard table, a
     *  count that is not a whole number in range, a shard "dir" other
     *  than shardDirName(id), ...). */
    static CampaignManifest fromJson(const JsonValue &doc,
                                     const std::string &context);
};

/** Relative shard-store directory for shard k ("shards/shard-k"). */
std::string shardDirName(std::size_t shard);

/** Load+validate <dir>/campaign.json; fatal() if absent or invalid. */
CampaignManifest loadManifest(const std::string &dir);

/** Atomically write <dir>/campaign.json. */
void saveManifest(const std::string &dir, const CampaignManifest &m);

/** A worker's own progress record (shard.json in its store dir). */
struct ShardState
{
    std::uint64_t attempts = 0;
    bool completed = false;
};

/** Lenient read of <shardDir>/shard.json: a missing, torn, or
 *  foreign-fingerprint file reads as zero progress, and an
 *  "attempts" that is not a whole number in range reads as 0. */
ShardState loadShardState(const std::string &shardDir,
                          const std::string &fingerprint);

/** Atomically write <shardDir>/shard.json. */
void saveShardState(const std::string &shardDir,
                    const std::string &fingerprint, std::size_t shard,
                    std::size_t shardCount, const ShardState &state);

} // namespace campaign
} // namespace nvmexp

#endif // NVMEXP_CAMPAIGN_MANIFEST_HH
