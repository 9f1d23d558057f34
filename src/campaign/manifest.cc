#include "campaign/manifest.hh"

#include <filesystem>

#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace campaign {

ShardPlan
CampaignManifest::plan() const
{
    ShardPlan plan;
    plan.fingerprint = fingerprint;
    plan.runLength = granularity;
    plan.shardCount = shardCount;
    plan.rotation =
        (std::size_t)(store::fnv1a64(fingerprint) % shardCount);
    return plan;
}

namespace {

constexpr store::Field<CampaignManifest> kManifestFields[] = {
    store::kFormatField<CampaignManifest>,
    {"campaign_format",
     [](JsonWriter &w, const CampaignManifest &) {
         w.number(kCampaignFormatVersion);
     },
     [](store::Member &m, CampaignManifest &) {
         m.readVersion(kCampaignFormatVersion,
                       " (plan the campaign again with this build)");
     }},
    {"fingerprint",
     [](JsonWriter &w, const CampaignManifest &c) {
         w.string(c.fingerprint);
     },
     [](store::Member &m, CampaignManifest &c) {
         m.read(c.fingerprint);
         if (c.fingerprint.empty())
             m.reject("must be the sweep fingerprint, got \"\"");
     }},
    {"shard_count",
     [](JsonWriter &w, const CampaignManifest &c) {
         store::writeValue(w, c.shardCount);
     },
     [](store::Member &m, CampaignManifest &c) {
         m.read(c.shardCount, 1, (std::int64_t)kMaxShards);
     }},
    {"granularity",
     [](JsonWriter &w, const CampaignManifest &c) {
         store::writeValue(w, c.granularity);
     },
     [](store::Member &m, CampaignManifest &c) {
         m.read(c.granularity, 1, kMaxExactInteger);
     }},
};

} // namespace

void
writeJson(JsonWriter &w, const CampaignManifest &manifest)
{
    store::writeFields(w, kManifestFields, manifest);
}

void
readJson(JsonReader &r, CampaignManifest &manifest)
{
    store::readFields(r, kManifestFields, manifest);
}

std::string
shardDirName(std::size_t shard)
{
    return "shards/shard-" + std::to_string(shard);
}

CampaignManifest
loadManifest(const std::string &dir)
{
    std::string path = dir + "/campaign.json";
    if (!std::filesystem::exists(path)) {
        fatal("campaign: no manifest at '", path,
              "' (run `campaign plan` first)");
    }
    CampaignManifest manifest;
    store::readJsonFile(path, manifest);
    return manifest;
}

} // namespace campaign
} // namespace nvmexp
