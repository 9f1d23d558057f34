/**
 * @file
 * The campaign manifest (campaign.json), written and read through one
 * field table in the store's codec (store/serialize.hh), so a member
 * this build does not know, or one given twice, is refused by name.
 *
 * A campaign directory looks like:
 *
 *   <dir>/campaign.json        the immutable plan: format versions,
 *                              sweep fingerprint, shard count and
 *                              granularity
 *   <dir>/config.json          verbatim copy of the experiment config
 *                              (CLI campaigns; programmatic ones skip
 *                              it)
 *   <dir>/cache/               ONE characterization cache shared by
 *                              every shard and the merged store
 *   <dir>/shards/shard-<k>/    one shard: its checkpoint journal (the
 *                              only durable copy of its rows, and the
 *                              only record of its progress) and
 *                              stats.json
 *   <dir>/merged/              the canonical merged store
 *
 * Single-writer discipline: campaign.json is written only by `plan`
 * and never changes after that. A shard worker writes only inside its
 * own shard directory and the shared cache, so concurrent workers
 * never race on a shared file other than cache entries; `merge` writes
 * only <dir>/merged. Whether a shard is complete is read from its
 * journal and stats.json (campaign.hh), never from the manifest, so a
 * kill at any byte leaves nothing that claims more than the journal
 * holds.
 */

#ifndef NVMEXP_CAMPAIGN_MANIFEST_HH
#define NVMEXP_CAMPAIGN_MANIFEST_HH

#include <string>

#include "campaign/shard_plan.hh"
#include "util/json.hh"

namespace nvmexp {
namespace campaign {

/** Version of the campaign.json schema itself, separate from the
 *  store format the fingerprint is defined over. Version 1 manifests
 *  carried a mutable shard table; they are refused. */
constexpr int kCampaignFormatVersion = 2;

struct CampaignManifest
{
    std::string fingerprint;
    std::size_t shardCount = 0;
    std::size_t granularity = 1; ///< ShardPlan::runLength

    /** Reconstruct the slot->shard mapping (pure function of the
     *  manifest fields). */
    ShardPlan plan() const;
};

/** campaign.json: "format" (the store format this build reads),
 *  "campaign_format" (kCampaignFormatVersion), a non-empty
 *  "fingerprint", "shard_count" (a whole number in [1, kMaxShards])
 *  and "granularity" (a whole number, at least 1). A read refuses
 *  anything else naming the member and its value. */
void writeJson(JsonWriter &w, const CampaignManifest &manifest);
void readJson(JsonReader &r, CampaignManifest &manifest);

/** Relative shard-store directory for shard k ("shards/shard-k"). */
std::string shardDirName(std::size_t shard);

/** Load+validate <dir>/campaign.json; fatal() if absent or invalid. */
CampaignManifest loadManifest(const std::string &dir);

} // namespace campaign
} // namespace nvmexp

#endif // NVMEXP_CAMPAIGN_MANIFEST_HH
