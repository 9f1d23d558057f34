/**
 * @file
 * Differential tier for distributed sweep campaigns: shards run as
 * independent store-backed workers (any shard count, any worker
 * count, all at once, killed and retried mid-shard) must merge into a
 * store byte-identical to a single-process `--out` run of the same
 * config — checkpoint journal included. Also pins the merge's refusal
 * diagnostics, the manifest round trip and its validation, and the
 * status snapshot.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "core/config.hh"
#include "core/parallel_sweep.hh"
#include "reliability/reliability.hh"
#include "store/result_store.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

#include "../support/fixtures.hh"

namespace nvmexp {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE((bool)in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path,
           const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &line : lines)
        out << line << '\n';
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
}

/** The merge failure message for `body`, "" when it succeeded. */
std::string
mergeError(const std::string &dir)
{
    ScopedFatalThrows guard;
    try {
        campaign::mergeCampaign(dir);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

class CampaignTest : public testsupport::QuietTest
{
  protected:
    std::string
    freshDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_campaign_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() +
            "_" + name;
        std::filesystem::remove_all(dir);
        return dir;
    }

    /** smallSweep with two reliability specs: 32 slots in blocks of
     *  2 (the granularity shards are assigned at). */
    SweepConfig
    specSweep()
    {
        SweepConfig config = testsupport::smallSweep();
        reliability::ReliabilitySpec none;
        reliability::ReliabilitySpec secded;
        secded.ecc = "secded-72-64";
        config.reliability = {none, secded};
        return config;
    }

    /** wideSweep with two reliability specs: 96 slots, enough that
     *  every shard count under test owns several blocks. */
    SweepConfig
    wideSpecSweep()
    {
        SweepConfig config = testsupport::wideSweep();
        reliability::ReliabilitySpec none;
        reliability::ReliabilitySpec secded;
        secded.ecc = "secded-72-64";
        secded.scrubIntervalSec = 3600.0;
        config.reliability = {none, secded};
        return config;
    }

    /** Single-process reference artifacts for `config` (run at one
     *  worker so the journal is in ascending slot order, the canonical
     *  form the merge produces). */
    struct Reference
    {
        std::string json, csv, journal;
    };

    Reference
    referenceRun(SweepConfig config, const std::string &dir)
    {
        config.outDir = dir;
        ParallelSweepRunner runner(1);
        runner.run(config);
        return {readFile(dir + "/results.json"),
                readFile(dir + "/results.csv"),
                readFile(dir + "/checkpoint.jsonl")};
    }

    void
    expectMergedMatches(const std::string &dir, const Reference &ref,
                        const std::string &label)
    {
        std::string merged = campaign::mergedDir(dir);
        EXPECT_EQ(readFile(merged + "/results.json"), ref.json)
            << label;
        EXPECT_EQ(readFile(merged + "/results.csv"), ref.csv) << label;
        EXPECT_EQ(readFile(merged + "/checkpoint.jsonl"), ref.journal)
            << label;
    }
};

/** The headline guarantee: for every shard count and worker count,
 *  running the shards independently and merging produces bytes
 *  indistinguishable from never having sharded at all. */
TEST_F(CampaignTest, MergedStoreIsByteIdenticalAcrossShardCounts)
{
    SweepConfig config = wideSpecSweep();
    Reference ref = referenceRun(config, freshDir("reference"));

    for (std::size_t shards : {1u, 2u, 3u, 8u}) {
        for (int jobs : {1, 8}) {
            std::string label = std::to_string(shards) + " shards -j" +
                std::to_string(jobs);
            std::string dir = freshDir(label);
            campaign::planCampaign(dir, config, shards);
            ParallelSweepRunner runner(jobs);
            std::size_t rows = 0;
            for (std::size_t k = 0; k < shards; ++k)
                rows += campaign::runShard(dir, config, k, runner)
                            .size();
            EXPECT_EQ(rows, 96u) << label;

            campaign::MergeSummary summary =
                campaign::mergeCampaign(dir);
            EXPECT_EQ(summary.totalSlots, 96u) << label;
            EXPECT_EQ(summary.shardCount, shards) << label;
            // Every slot was evaluated exactly once, somewhere.
            EXPECT_EQ(summary.stats.checkpointComputed, 96u) << label;
            expectMergedMatches(dir, ref, label);
        }
    }
}

/** A shard killed mid-write leaves a torn store; the retry resumes
 *  from the journal and the campaign still merges byte-identically,
 *  with the replayed slots visible in the summed stats. */
TEST_F(CampaignTest, KilledShardRetriesAndMergesIdentically)
{
    SweepConfig config = specSweep();
    Reference ref = referenceRun(config, freshDir("reference"));

    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 3);
    ParallelSweepRunner runner(2);
    for (std::size_t k = 0; k < 3; ++k)
        campaign::runShard(dir, config, k, runner);

    // Re-create the kill: shard 1's journal is cut after two entries.
    std::string shardDir = dir + "/" + campaign::shardDirName(1);
    auto lines = readLines(shardDir + "/checkpoint.jsonl");
    ASSERT_GT(lines.size(), 3u);
    lines.resize(3);  // header + 2 journaled slots
    writeLines(shardDir + "/checkpoint.jsonl", lines);

    // Merging a torn campaign is refused with the shard named...
    std::string error = mergeError(dir);
    EXPECT_NE(error.find("shard-1"), std::string::npos) << error;

    // ...and the retry heals it: replay the two surviving slots,
    // recompute the rest, merge clean.
    auto rows = campaign::runShard(dir, config, 1, runner);
    campaign::MergeSummary summary = campaign::mergeCampaign(dir);
    EXPECT_EQ(summary.totalSlots, 32u);
    EXPECT_EQ(summary.stats.checkpointLoaded, 2u);
    expectMergedMatches(dir, ref, "after retry");

    campaign::CampaignStatus status = campaign::campaignStatus(dir);
    EXPECT_EQ(status.shards[1].state, "complete");
    EXPECT_EQ(rows.size(), status.shards[1].ownedSlots);
}

/** Status judges a shard by the merge's own check: a finished shard
 *  whose journal is cut to one entry, or whose stats.json is gone, or
 *  whose journal carries another shard's slot, is not complete, and
 *  status names the reason the merge refuses it with. An older build
 *  recorded completion in shard.json too; such a file is ignored. */
TEST_F(CampaignTest, StatusAgreesWithMergeOnATornFinishedShard)
{
    SweepConfig config = specSweep();
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 3);
    ParallelSweepRunner runner(1);
    for (std::size_t k = 0; k < 3; ++k)
        campaign::runShard(dir, config, k, runner);
    ASSERT_TRUE(campaign::campaignStatus(dir).allComplete());
    ASSERT_EQ(mergeError(dir), "");

    std::string shardDir = dir + "/" + campaign::shardDirName(1);
    std::string journalPath = shardDir + "/checkpoint.jsonl";
    const std::string journal = readFile(journalPath);
    const std::string stats = readFile(shardDir + "/stats.json");
    writeText(shardDir + "/shard.json", "{\"completed\": true}");
    auto lines = readLines(journalPath);
    std::string foreign =
        readLines(dir + "/" + campaign::shardDirName(0) +
                  "/checkpoint.jsonl")[1];

    const std::vector<std::pair<std::string, std::function<void()>>>
        tears = {
            {"journal cut to one entry",
             [&] { writeLines(journalPath, {lines[0], lines[1]}); }},
            {"stats.json deleted",
             [&] { std::filesystem::remove(shardDir + "/stats.json"); }},
            {"another shard's slot journaled",
             [&] {
                 auto grown = lines;
                 grown.push_back(foreign);
                 writeLines(journalPath, grown);
             }},
        };
    for (const auto &[label, tear] : tears) {
        tear();
        campaign::CampaignStatus status = campaign::campaignStatus(dir);
        EXPECT_FALSE(status.allComplete()) << label;
        const campaign::ShardProgress &torn = status.shards[1];
        EXPECT_EQ(torn.state, "partial") << label;
        EXPECT_EQ(status.shards[0].state, "complete") << label;
        EXPECT_EQ(status.shards[2].state, "complete") << label;
        std::string error = mergeError(dir);
        EXPECT_NE(error.find("shard-1"), std::string::npos) << error;
        ASSERT_FALSE(torn.problem.empty()) << label;
        EXPECT_NE(error.find(torn.problem), std::string::npos)
            << label << ": status says '" << torn.problem
            << "', merge says '" << error << "'";
        writeText(journalPath, journal);
        writeText(shardDir + "/stats.json", stats);
    }
    campaign::CampaignStatus healed = campaign::campaignStatus(dir);
    EXPECT_TRUE(healed.allComplete());
    EXPECT_EQ(mergeError(dir), "");

    // A journal cut to one entry counts that one owned slot.
    writeLines(journalPath, {lines[0], lines[1]});
    campaign::ShardProgress cut = campaign::campaignStatus(dir).shards[1];
    EXPECT_EQ(cut.doneSlots, 1u);
    EXPECT_EQ(cut.ownedSlots, lines.size() - 1);
}

TEST_F(CampaignTest, MergeRefusesMissingAndForeignShards)
{
    SweepConfig config = specSweep();
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 2);
    ParallelSweepRunner runner(2);

    // Shard 1 never ran: the merge names its journal, not some slot
    // arithmetic deep in the merge.
    campaign::runShard(dir, config, 0, runner);
    std::string error = mergeError(dir);
    EXPECT_NE(error.find("shard-1"), std::string::npos) << error;

    campaign::runShard(dir, config, 1, runner);
    ASSERT_EQ(mergeError(dir), "");

    std::string shardDir = dir + "/" + campaign::shardDirName(0);
    std::string journalPath = shardDir + "/checkpoint.jsonl";
    std::string journal = readFile(journalPath);

    // A journal claiming a different sweep is refused up front.
    auto lines = readLines(journalPath);
    lines[0] = store::checkpointHeaderLine(
        "00000000deadbeef", campaign::campaignStatus(dir).totalSlots);
    writeLines(journalPath, lines);
    error = mergeError(dir);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
    writeText(journalPath, journal);

    // A journal missing one owned slot means the worker did not
    // finish; the merge says so instead of silently dropping rows.
    lines = readLines(journalPath);
    lines.pop_back();
    writeLines(journalPath, lines);
    error = mergeError(dir);
    EXPECT_NE(error.find("incomplete"), std::string::npos) << error;
    writeText(journalPath, journal);

    ASSERT_EQ(mergeError(dir), "");
}

/** A shard directory is its journal and stats.json. The results.json,
 *  results.csv and shard.json an older build left beside them are
 *  never read: garbage there, or a shard.json claiming completion,
 *  leaves the merged bytes unchanged. */
TEST_F(CampaignTest, MergeIgnoresLeftoverShardArtifacts)
{
    SweepConfig config = specSweep();
    Reference ref = referenceRun(config, freshDir("reference"));
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 3);
    ParallelSweepRunner runner(1);
    for (std::size_t k = 0; k < 3; ++k)
        campaign::runShard(dir, config, k, runner);

    for (std::size_t k = 0; k < 3; ++k) {
        std::string shardDir = dir + "/" + campaign::shardDirName(k);
        writeText(shardDir + "/results.json", "{\"format\": 2, \"resu");
        writeText(shardDir + "/results.csv", "not,a\n\"csv");
        writeText(shardDir + "/shard.json", "{\"completed\": true}");
    }
    campaign::mergeCampaign(dir);
    expectMergedMatches(dir, ref, "leftover shard artifacts");
}

TEST_F(CampaignTest, PlanIsIdempotentButRefusesConflicts)
{
    SweepConfig config = specSweep();
    std::string dir = freshDir("campaign");
    campaign::CampaignManifest first =
        campaign::planCampaign(dir, config, 3);
    // Same config, same shard count: a no-op (scripts may always
    // plan first).
    campaign::CampaignManifest again =
        campaign::planCampaign(dir, config, 3);
    EXPECT_EQ(again.fingerprint, first.fingerprint);

    ScopedFatalThrows guard;
    // Different shard count or different sweep: refuse, don't clobber.
    EXPECT_THROW(campaign::planCampaign(dir, config, 4), FatalError);
    SweepConfig other = config;
    other.reliability.pop_back();
    EXPECT_THROW(campaign::planCampaign(dir, other, 3), FatalError);
}

/** The CLI's `run`, `merge` and `status` load the config snapshot
 *  through loadPlannedConfig, so all three refuse the same snapshots:
 *  a missing one, one an older build planned with a run-setting key,
 *  and one edited since the plan, each naming the file. */
TEST_F(CampaignTest, PlannedConfigMustLoadAndMatchThePlan)
{
    const std::string source =
        std::string(NVMEXP_SOURCE_DIR) + "/config/main_dnn_study.json";
    const std::string bytes = readFile(source);
    std::string dir = freshDir("campaign");
    campaign::CampaignManifest manifest = campaign::planCampaign(
        dir, loadExperimentFile(source).sweep, 3);
    const std::string path = dir + "/config.json";
    auto refusal = [&] {
        ScopedFatalThrows guard;
        try {
            campaign::loadPlannedConfig(dir, manifest);
        } catch (const FatalError &error) {
            return std::string(error.what());
        }
        return std::string();
    };

    EXPECT_NE(refusal().find("'" + path + "'"), std::string::npos);

    writeText(path, bytes);
    EXPECT_EQ(refusal(), "");

    // The same design space with a run setting the parent build read.
    writeText(path, "{\"campaign\": {\"shards\": 3}," + bytes.substr(1));
    std::string stale = refusal();
    EXPECT_NE(stale.find("'" + path + "'"), std::string::npos) << stale;
    EXPECT_NE(stale.find("\"campaign\" is a run setting"), std::string::npos)
        << stale;
    EXPECT_NE(stale.find("campaign plan --shards"), std::string::npos)
        << stale;
    EXPECT_NE(stale.find("plan the campaign again"), std::string::npos)
        << stale;

    std::string drifted = bytes;
    drifted.replace(drifted.find("[2, 4, 8]"), 9, "[2, 4]");
    writeText(path, drifted);
    std::string drift = refusal();
    EXPECT_NE(drift.find("'" + path + "' now fingerprints to"),
              std::string::npos)
        << drift;
    EXPECT_NE(drift.find(manifest.fingerprint), std::string::npos)
        << drift;
}

TEST_F(CampaignTest, ManifestRoundTripsThroughJson)
{
    SweepConfig config = specSweep();
    std::string dir = freshDir("campaign");
    campaign::CampaignManifest written =
        campaign::planCampaign(dir, config, 5);
    campaign::CampaignManifest loaded = campaign::loadManifest(dir);
    EXPECT_EQ(loaded.fingerprint, written.fingerprint);
    EXPECT_EQ(loaded.shardCount, 5u);
    EXPECT_EQ(loaded.granularity, 2u);
    std::string text;
    JsonWriter writer(text);
    campaign::writeJson(writer, loaded);
    campaign::CampaignManifest reparsed;
    store::readJson(text, "test", reparsed);
    EXPECT_EQ(reparsed.fingerprint, loaded.fingerprint);
    EXPECT_EQ(reparsed.shardCount, loaded.shardCount);
    EXPECT_EQ(reparsed.granularity, loaded.granularity);

    // The plan reconstructed from the manifest is the planner's.
    campaign::ShardPlan plan = loaded.plan();
    campaign::ShardPlan direct = campaign::makeShardPlan(config, 5);
    EXPECT_EQ(plan.rotation, direct.rotation);
    EXPECT_EQ(plan.runLength, direct.runLength);
}

TEST_F(CampaignTest, StatusTracksShardLifecycles)
{
    SweepConfig config = specSweep();
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 2);

    campaign::CampaignStatus fresh = campaign::campaignStatus(dir);
    EXPECT_FALSE(fresh.allComplete());
    EXPECT_FALSE(fresh.merged);
    EXPECT_EQ(fresh.totalSlots, 0u);  // nothing journaled yet
    ASSERT_EQ(fresh.shards.size(), 2u);
    EXPECT_EQ(fresh.shards[0].state, "pending");

    ParallelSweepRunner runner(2);
    campaign::runShard(dir, config, 0, runner);
    campaign::CampaignStatus half = campaign::campaignStatus(dir);
    EXPECT_FALSE(half.allComplete());
    EXPECT_EQ(half.totalSlots, 32u);
    EXPECT_EQ(half.shards[0].state, "complete");
    EXPECT_EQ(half.shards[0].doneSlots, half.shards[0].ownedSlots);
    EXPECT_EQ(half.shards[1].state, "pending");

    campaign::runShard(dir, config, 1, runner);
    // A finished shard is its journal plus stats.json, and the
    // manifest is the plan alone, which merge only reads.
    const std::set<std::string> shardFiles = {"checkpoint.jsonl",
                                              "stats.json"};
    for (std::size_t k = 0; k < 2; ++k) {
        std::set<std::string> files;
        for (const auto &entry : std::filesystem::directory_iterator(
                 dir + "/" + campaign::shardDirName(k)))
            files.insert(entry.path().filename().string());
        EXPECT_EQ(files, shardFiles) << "shard " << k;
    }
    std::string manifest = readFile(dir + "/campaign.json");
    EXPECT_EQ(manifest.find("\"shards\""), std::string::npos) << manifest;
    campaign::mergeCampaign(dir);
    EXPECT_EQ(readFile(dir + "/campaign.json"), manifest);
    campaign::CampaignStatus done = campaign::campaignStatus(dir);
    EXPECT_TRUE(done.allComplete());
    EXPECT_TRUE(done.merged);
    EXPECT_EQ(done.shards[0].doneSlots + done.shards[1].doneSlots,
              32u);
}

/** campaign.json takes each member once and no other: an unknown or a
 *  repeated member is refused, naming the file and the member. */
TEST_F(CampaignTest, ManifestMembersAreKnownAndOnce)
{
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, specSweep(), 2);
    const std::string path = dir + "/campaign.json";
    const std::string manifest = readFile(path);
    const std::string last = "\"granularity\": 2\n";
    ASSERT_NE(manifest.find(last), std::string::npos) << manifest;
    for (const std::string member : {"shards", "granularity"}) {
        SCOPED_TRACE(member);
        std::string edited = manifest;
        edited.replace(edited.find(last), last.size(),
                       "\"granularity\": 2,\n  \"" + member + "\": 2\n");
        writeText(path, edited);
        ScopedFatalThrows guard;
        try {
            campaign::loadManifest(dir);
            ADD_FAILURE() << edited << " was accepted";
        } catch (const FatalError &e) {
            std::string error = e.what();
            EXPECT_NE(error.find(path), std::string::npos) << error;
            EXPECT_NE(error.find(" member "), std::string::npos) << error;
            EXPECT_NE(error.find(member), std::string::npos) << error;
        }
    }
}

/** Every shard of a plan running at once, each its own worker with
 *  one job, all writing the shared characterization cache: what N
 *  concurrent `campaign run` processes do. The merged artifacts are
 *  the single-process bytes (stats.json is not compared: which shard
 *  hits or misses a shared cache entry depends on timing). */
TEST_F(CampaignTest, ConcurrentShardsMergeIdentically)
{
    SweepConfig config = wideSpecSweep();
    Reference ref = referenceRun(config, freshDir("reference"));
    std::string dir = freshDir("campaign");
    campaign::planCampaign(dir, config, 3);

    std::vector<std::size_t> rows(3, 0);
    std::vector<std::thread> workers;
    for (std::size_t k = 0; k < 3; ++k) {
        workers.emplace_back([&, k] {
            ParallelSweepRunner runner(1);
            rows[k] = campaign::runShard(dir, config, k, runner).size();
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(rows[0] + rows[1] + rows[2], 96u);

    campaign::MergeSummary summary = campaign::mergeCampaign(dir);
    EXPECT_EQ(summary.stats.checkpointComputed, 96u);
    expectMergedMatches(dir, ref, "concurrent shards");
}

/** `text`, a JSON object, written two-space indented with member
 *  `key`'s value replaced by the JSON text `value`, or deleted when
 *  `value` is null. */
std::string
edited(const std::string &text, const std::string &key, const char *value)
{
    JsonReader reader(text);
    std::string out = "{";
    std::string_view name;
    reader.beginObject();
    while (reader.nextMember(name)) {
        std::string member(name);
        std::string raw = reader.value().text();
        if (member == key) {
            if (!value)
                continue;
            raw = value;
        }
        out += (out.size() > 1 ? ",\n  \"" : "\n  \"") + member +
            "\": " + raw;
    }
    return out + "\n}";
}

/** Counts are checked as doubles before any cast. Unchecked,
 *  granularity 1e300 cast to 0 and divided by it (SIGFPE), 2.5
 *  truncated, and NaN read as 2^63; a shard count past kMaxShards
 *  would have every reader walk that many shard directories. */
TEST_F(CampaignTest, ManifestRefusesNonWholeCounts)
{
    std::string dir = freshDir("campaign");
    SweepConfig config = specSweep();
    campaign::planCampaign(dir, config, 3);
    const std::string pristine = readFile(dir + "/campaign.json");

    struct Case
    {
        std::string key, raw;
    };
    std::vector<Case> cases = {{"shard_count", "0"},
                               {"shard_count", "4097"},
                               {"granularity", "-0"}};
    for (const char *raw : {"2.5", "-1", "NaN", "Infinity", "-Infinity",
                            "9007199254740994", "1e300"}) {
        cases.push_back({"shard_count", raw});
        cases.push_back({"granularity", raw});
    }
    ScopedFatalThrows guard;
    ParallelSweepRunner runner(1);
    for (const Case &c : cases) {
        double value = 0.0;
        ASSERT_TRUE(JsonValue::parseNumber(c.raw, value)) << c.raw;
        writeText(dir + "/campaign.json",
                  edited(pristine, c.key, c.raw.c_str()));
        std::string label = c.key + " = " + c.raw;
        for (const auto &reader : std::vector<std::function<void()>>{
                 [&] { campaign::loadManifest(dir); },
                 [&] { campaign::campaignStatus(dir); },
                 [&] { campaign::runShard(dir, config, 1, runner); }}) {
            try {
                reader();
                ADD_FAILURE() << label << " was accepted";
            } catch (const FatalError &e) {
                std::string error = e.what();
                EXPECT_NE(error.find("campaign.json"), std::string::npos)
                    << label << ": " << error;
                EXPECT_NE(error.find('"' + c.key + "\" must be"),
                          std::string::npos) << label << ": " << error;
                EXPECT_NE(error.find("got " + JsonValue::formatNumber(value)),
                          std::string::npos) << label << ": " << error;
            }
        }
    }
}

/** A campaign_format 1 manifest, whose shard table older builds
 *  rewrote on every merge, is refused by every reader with the file,
 *  the key, and the value; nothing runs against it. */
TEST_F(CampaignTest, CampaignFormatOneManifestIsRefused)
{
    std::string dir = freshDir("campaign");
    SweepConfig config = specSweep();
    campaign::planCampaign(dir, config, 2);
    std::string legacy =
        edited(readFile(dir + "/campaign.json"), "campaign_format", "1");
    std::string table;
    for (std::size_t k = 0; k < 2; ++k) {
        table += std::string(k ? ", " : "") + "{\"id\": " +
            std::to_string(k) + ", \"dir\": \"" +
            campaign::shardDirName(k) +
            "\", \"status\": \"pending\", \"attempts\": 0}";
    }
    legacy.insert(legacy.size() - 2, ",\n  \"shards\": [" + table + "]");
    writeText(dir + "/campaign.json", legacy + "\n");

    ScopedFatalThrows guard;
    ParallelSweepRunner runner(1);
    for (const auto &reader : std::vector<std::function<void()>>{
             [&] { campaign::loadManifest(dir); },
             [&] { campaign::campaignStatus(dir); },
             [&] { campaign::runShard(dir, config, 0, runner); }}) {
        try {
            reader();
            ADD_FAILURE() << "campaign_format 1 was accepted";
        } catch (const FatalError &e) {
            std::string error = e.what();
            EXPECT_NE(error.find("campaign.json"), std::string::npos)
                << error;
            EXPECT_NE(error.find("\"campaign_format\" must be 2, got 1"),
                      std::string::npos) << error;
        }
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/shards"));
}

/** Seeded fuzz of the campaign file a user can edit, in the style of
 *  tests/util/test_json_fuzz.cc (fixed seed, bounded rounds): one
 *  member of campaign.json set to a hostile value or deleted,
 *  sometimes with the text cut short. No reader crashes or hangs, and
 *  every refusal names campaign.json and the edited key (or, for text
 *  that is not JSON, a line and column). */
TEST_F(CampaignTest, FuzzedCampaignFilesAreRefusedByNameOrReadSafely)
{
    std::string dir = freshDir("campaign");
    SweepConfig config = specSweep();
    campaign::planCampaign(dir, config, 3);
    ParallelSweepRunner runner(1);
    for (std::size_t k = 0; k < 3; ++k)
        campaign::runShard(dir, config, k, runner);
    const std::string manifestPath = dir + "/campaign.json";
    const std::string manifest = readFile(manifestPath);

    const char *const values[] = {
        "NaN", "Infinity", "-Infinity", "1e+300", "-0", "0.5", "-1",
        "9007199254740994", "0", "1", "2", "3", "\"../outside\"",
        "\"partial\"", "true", "null", "[]", "{}"};
    const char *const keys[] = {"format", "campaign_format", "fingerprint",
                                "shard_count", "granularity"};
    Rng rng(0xCA4E1A);
    int refused = 0, accepted = 0;
    ScopedFatalThrows guard;
    for (int round = 0; round < 1000; ++round) {
        std::string key = keys[rng.range(std::size(keys))];
        const char *value = rng.bernoulli(0.2)
            ? nullptr
            : values[rng.range(std::size(values))];
        bool cut = rng.bernoulli(0.2);

        std::string text = edited(manifest, key, value);
        if (cut)
            text.resize(rng.range(text.size()));
        writeText(manifestPath, text);
        try {
            campaign::ShardPlan plan = campaign::loadManifest(dir).plan();
            for (std::size_t slot = 0; slot < 32; ++slot)
                ASSERT_LT(plan.shardOf(slot), plan.shardCount) << text;
            campaign::campaignStatus(dir);
            ++accepted;
        } catch (const FatalError &e) {
            std::string error = e.what();
            EXPECT_NE(error.find("campaign.json"), std::string::npos)
                << error;
            EXPECT_TRUE(error.find(" at line ") != std::string::npos ||
                        error.find('"' + key + '"') != std::string::npos)
                << key << ": " << error << "\n" << text;
            ++refused;
        }
    }
    // Most edits break the manifest; the rest (an in-range count, a
    // fingerprint string, an uncut text) must still be read (925/75
    // refused/accepted at this seed).
    EXPECT_GT(refused, 700);
    EXPECT_GT(accepted, 40);
}

} // namespace
} // namespace nvmexp
