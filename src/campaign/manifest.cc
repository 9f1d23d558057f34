#include "campaign/manifest.hh"

#include <filesystem>

#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace campaign {

namespace {

/** Typed member guards: the fatal()-based JsonValue accessors must
 *  never run on untrusted shapes (same discipline as the store). */
bool
hasString(const JsonValue &doc, const std::string &key)
{
    return doc.isObject() && doc.has(key) && doc.at(key).isString();
}

bool
hasNumber(const JsonValue &doc, const std::string &key)
{
    return doc.isObject() && doc.has(key) && doc.at(key).isNumber();
}

/** What `doc` holds under `key`, as diagnostics quote it. */
std::string
shown(const JsonValue &doc, const std::string &key)
{
    return doc.has(key) ? doc.at(key).dump(-1) : "nothing";
}

} // namespace

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

JsonValue
CampaignManifest::toJson() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("format", JsonValue::makeNumber(store::kFormatVersion));
    v.set("campaign_format",
          JsonValue::makeNumber(kCampaignFormatVersion));
    v.set("fingerprint", JsonValue::makeString(fingerprint));
    v.set("shard_count", JsonValue::makeNumber((double)shardCount));
    v.set("granularity", JsonValue::makeNumber((double)granularity));
    return v;
}

CampaignManifest
CampaignManifest::fromJson(const JsonValue &doc,
                           const std::string &context)
{
    if (!doc.isObject())
        fatal(context, ": document must be a JSON object");
    if (!hasNumber(doc, "format") ||
        doc.at("format").asNumber() != store::kFormatVersion) {
        fatal(context, ": \"format\" must be the store format version ",
              store::kFormatVersion, " this build reads, got ",
              shown(doc, "format"));
    }
    if (!hasNumber(doc, "campaign_format") ||
        doc.at("campaign_format").asNumber() != kCampaignFormatVersion) {
        fatal(context, ": \"campaign_format\" must be ",
              kCampaignFormatVersion, ", got ", shown(doc, "campaign_format"),
              " (plan the campaign again with this build)");
    }
    if (!hasString(doc, "fingerprint") ||
        doc.at("fingerprint").asString().empty()) {
        fatal(context,
              ": \"fingerprint\" must be the sweep fingerprint string");
    }
    CampaignManifest m;
    m.fingerprint = doc.at("fingerprint").asString();
    m.shardCount = (std::size_t)wholeNumberKey(
        doc, "shard_count", 1, (std::int64_t)kMaxShards, context);
    m.granularity = (std::size_t)wholeNumberKey(
        doc, "granularity", 1, kMaxExactInteger, context);
    return m;
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
    return CampaignManifest::fromJson(JsonValue::parseFile(path),
                                      "campaign manifest '" + path +
                                          "'");
}

} // namespace campaign
} // namespace nvmexp
