/**
 * @file
 * Error-path tests for nvmexplorer_lint: every seeded-bad artifact
 * must produce a diagnostic naming the file and the offending key,
 * and the shipped repo artifacts must lint clean.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "../support/fixtures.hh"
#include "../support/golden_compare.hh"
#include "campaign/campaign.hh"
#include "core/config.hh"
#include "core/parallel_sweep.hh"
#include "lint.hh"

namespace nvmexp {
namespace lint {
namespace {

namespace fs = std::filesystem;

class LintTest : public testsupport::QuietTest
{
  protected:
    void SetUp() override
    {
        testsupport::QuietTest::SetUp();
        dir_ = fs::temp_directory_path() /
            ("nvmexp-lint-" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "-" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override
    {
        fs::remove_all(dir_);
        testsupport::QuietTest::TearDown();
    }

    /** Write `text` under the temp dir and return its path. */
    std::string
    write(const std::string &name, const std::string &text)
    {
        fs::path path = dir_ / name;
        fs::create_directories(path.parent_path());
        std::ofstream out(path);
        out << text;
        out.close();
        return path.string();
    }

    /** The one diagnostic expected for `path`, keyed `key`. */
    static void
    expectOneDiagnostic(const LintReport &report,
                        const std::string &path, const std::string &key)
    {
        ASSERT_EQ(report.diagnostics.size(), 1u)
            << "expected exactly one diagnostic for key '" << key << "'";
        EXPECT_EQ(report.diagnostics[0].file, path);
        EXPECT_EQ(report.diagnostics[0].key, key);
        EXPECT_FALSE(report.diagnostics[0].message.empty());
    }

    /** A minimal valid config, as a mutable skeleton for seeding one
     *  defect at a time. */
    static std::string
    validConfig(const std::string &extra)
    {
        return std::string("{\n"
                           "  \"experiment\": \"lint-fixture\",\n"
                           "  \"cells\": [\"SRAM\"],\n"
                           "  \"capacities_mib\": [1],\n"
                           "  \"traffic\": [{\"name\": \"t\",\n"
                           "    \"read_bytes_per_sec\": 1e9,\n"
                           "    \"write_bytes_per_sec\": 1e8}]") +
            (extra.empty() ? "" : ",\n" + extra) + "\n}\n";
    }

    fs::path dir_;
};

TEST_F(LintTest, ValidConfigIsClean)
{
    auto path = write("ok.json", validConfig(""));
    LintReport report = lintConfigFile(path);
    EXPECT_TRUE(report.clean()) << report.diagnostics.size();
}

TEST_F(LintTest, ShippedRepoArtifactsLintClean)
{
    LintReport report = lintTree(NVMEXP_SOURCE_DIR);
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
    // Registries + every shipped config + both golden files.
    EXPECT_GE(report.checked, 10u);
}

TEST_F(LintTest, UnknownMetricInParetoIsDiagnosed)
{
    auto path = write("pareto.json",
                      validConfig("  \"pareto\": [\"total_powerz\"]"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "pareto");
    EXPECT_NE(report.diagnostics[0].message.find("total_powerz"),
              std::string::npos);
}

TEST_F(LintTest, UnknownMetricInTopKIsDiagnosed)
{
    auto path = write(
        "topk.json",
        validConfig("  \"top_k\": {\"metric\": \"nope\", \"k\": 3}"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "top_k");
}

TEST_F(LintTest, MalformedConstraintClauseIsDiagnosed)
{
    auto path = write(
        "clause.json",
        validConfig("  \"constraints\": [\"total_power<=0.5\","
                    " \"total_power<<1\"]"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "constraints");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "constraints[1]: constraint 'total_power<<1'"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, UnknownConstraintMetricIsDiagnosed)
{
    auto path = write(
        "cmetric.json",
        validConfig("  \"constraints\": [{\"metric\": \"watts\","
                    " \"op\": \"<\", \"bound\": 1}]"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "constraints");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "constraints[0].metric: metric 'watts' unknown"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, LegacyConstraintObjectIsDiagnosed)
{
    auto path = write(
        "legacy.json",
        validConfig("  \"constraints\": {\"max_latency_load\": 1.0,"
                    " \"require_bandwidth\": true}"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "constraints");
    // The diagnostic gives the clause spelling to migrate to.
    EXPECT_NE(report.diagnostics[0].message.find(
                  "[\"latency_load<=1\", \"meets_read_bw>=1\", "
                  "\"meets_write_bw>=1\"]"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, UnknownWorkloadIsDiagnosed)
{
    auto path = write(
        "workload.json",
        validConfig("  \"workloads\": [{\"name\": \"no-such\"}]"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "workloads");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "workloads[0]: unknown workload 'no-such'"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, UnknownEccSchemeIsDiagnosed)
{
    auto path = write("ecc.json",
                      validConfig("  \"ecc\": \"secded-999\""));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "ecc");
    EXPECT_NE(report.diagnostics[0].message.find("secded-999"),
              std::string::npos);
}

TEST_F(LintTest, UnknownTopLevelKeyIsDiagnosed)
{
    auto path = write("typo.json",
                      validConfig("  \"trafic\": []"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "trafic");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "unknown member \"trafic\" (known: experiment, cells, "),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, RunSettingKeyIsDiagnosedNamingItsFlag)
{
    // The loader's refusal, word for word: the flag that replaced it.
    auto path = write("jobs.json", validConfig("  \"jobs\": 4"));
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "jobs");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "\"jobs\" is a run setting, not part of the design "
                  "space; pass --jobs on the command line instead"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, UnparseableConfigIsDiagnosed)
{
    auto path = write("broken.json", "{ not json");
    LintReport report = lintConfigFile(path);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].file, path);
    EXPECT_EQ(report.diagnostics[0].key, "");
}

TEST_F(LintTest, UnknownCellIsDiagnosedAtItsMember)
{
    auto path = write(
        "cell.json",
        "{\n  \"experiment\": \"x\",\n  \"cells\": [\"NoSuchCell\"],\n"
        "  \"capacities_mib\": [1],\n"
        "  \"traffic\": [{\"name\": \"t\",\n"
        "    \"read_bytes_per_sec\": 1e9,\n"
        "    \"write_bytes_per_sec\": 1e8}]\n}\n");
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "cells");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "line 3 column 25: cells[0]: unknown cell reference "
                  "'NoSuchCell'"),
              std::string::npos)
        << report.diagnostics[0].message;
}

/** What depends on more than one member is checked by the full load,
 *  once every member decodes on its own. */
TEST_F(LintTest, ConfigWithoutTrafficIsDiagnosedByFullLoad)
{
    auto path = write("bare.json",
                      "{\"cells\": [\"SRAM\"], \"capacities_mib\": [1]}");
    LintReport report = lintConfigFile(path);
    expectOneDiagnostic(report, path, "load");
}

/** A misspelled nested key, and members that exclude each other, used
 *  to lint clean (and load, dropping the member): each is one
 *  diagnostic now, keyed by its top-level member and naming the nested
 *  one, with its line and column. */
TEST_F(LintTest, MisspelledNestedKeysAreDiagnosedByName)
{
    struct Case
    {
        const char *member;
        const char *key;
        const char *message;
    };
    const Case cases[] = {
        {"  \"cells\": [\"SRAM\", {\"tech\": \"RRAM\", \"endurence\": 1e3}]",
         "cells", "cells[1]: unknown member \"endurence\""},
        {"  \"cells\": [{\"base\": \"STT-Opt\", \"tech\": \"RRAM\"}]",
         "cells", "cells[0]: \"base\" and \"tech\" exclude each other"},
        {"  \"top_k\": {\"metric\": \"total_power\", \"k\": 3, "
         "\"direction\": \"max\"}",
         "top_k", "top_k: unknown member \"direction\""},
        {"  \"top_k\": {\"metric\": \"total_power\", \"k\": 3, "
         "\"dir\": \"max\"}",
         "top_k", "top_k: unknown member \"dir\""},
        {"  \"constraints\": [{\"metric\": \"total_power\", \"op\": \"<\", "
         "\"bound\": 1, \"unit\": \"mW\"}]",
         "constraints", "constraints[0]: unknown member \"unit\""},
        {"  \"constraints\": [{\"metric\": \"total_power\", \"op\": \"<\", "
         "\"bound\": 1, \"bund\": 99}]",
         "constraints", "constraints[0]: unknown member \"bund\""},
        {"  \"reliability\": {\"ecc\": \"none\", \"scrub\": 0}",
         "reliability", "reliability: unknown member \"scrub\""},
        {"  \"workloads\": [{\"name\": \"intermittent\", \"inner\": "
         "{\"name\": \"wal\", \"commit_per_sec\": 1}}]",
         "workloads", "workloads[0].inner: workload 'wal': unknown "
                      "parameter 'commit_per_sec'"},
    };
    for (const Case &c : cases) {
        auto path = write("nested.json", validConfig(c.member));
        LintReport report = lintConfigFile(path);
        expectOneDiagnostic(report, path, c.key);
        if (report.diagnostics.size() != 1)
            continue;
        const std::string &message = report.diagnostics[0].message;
        EXPECT_EQ(message.rfind("'" + path + "' at line ", 0), 0u)
            << message;
        EXPECT_NE(message.find(c.message), std::string::npos) << message;
    }

    // The traffic entry's own shapes, in place of the valid one.
    const Case traffic[] = {
        {"[{\"name\": \"t\", \"reads\": 1, \"exec_tim\": 5}]", "traffic",
         "traffic[0]: unknown member \"exec_tim\""},
        {"[{\"name\": \"t\", \"read_bytes_per_sec\": 1e9, \"reads\": 1}]",
         "traffic",
         "traffic[0]: byte rates (\"read_bytes_per_sec\", "
         "\"write_bytes_per_sec\") and access counts (\"reads\", "
         "\"writes\") exclude each other"},
        {"[{\"kind\": \"generic_grid\", \"read_lo\": 1e9, \"read_hi\": 1e10, "
         "\"write_lo\": 1e6, \"write_hi\": 1e8, \"stepz\": 5}]",
         "traffic", "traffic[0]: unknown member \"stepz\""},
        {"[{\"kind\": \"generic_grid\", \"name\": \"g\", \"read_lo\": 1e9, "
         "\"read_hi\": 1e10, \"write_lo\": 1e6, \"write_hi\": 1e8}]",
         "traffic", "traffic[0]: unknown member \"name\""},
    };
    for (const Case &c : traffic) {
        auto path = write("traffic.json",
                          std::string("{\"cells\": [\"SRAM\"], "
                                      "\"capacities_mib\": [1],\n"
                                      "\"traffic\": ") +
                              c.member + "}\n");
        LintReport report = lintConfigFile(path);
        expectOneDiagnostic(report, path, c.key);
        if (report.diagnostics.size() == 1) {
            EXPECT_NE(report.diagnostics[0].message.find(c.message),
                      std::string::npos)
                << report.diagnostics[0].message;
        }
    }
}

TEST_F(LintTest, StaleGoldenFormatVersionIsDiagnosed)
{
    auto path = write("golden.json",
                      "{\"format\": 1, \"results\": []}");
    LintReport report = lintGoldenFile(path);
    expectOneDiagnostic(report, path, "");
    EXPECT_NE(report.diagnostics[0].message.find("\"format\" must be 2, "
                                                 "got 1"),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, GoldenWithoutResultsIsDiagnosed)
{
    auto path = write("golden2.json", "{\"format\": 2}");
    LintReport report = lintGoldenFile(path);
    expectOneDiagnostic(report, path, "");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "missing member \"results\""),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, StaleStoreCheckpointFormatIsDiagnosed)
{
    write("store/checkpoint.jsonl",
          "{\"format\":1,\"fingerprint\":\"abc\",\"slots\":4}\n");
    LintReport report = lintStoreDir((dir_ / "store").string());
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].key, "format");
}

TEST_F(LintTest, CheckpointWithoutFingerprintIsDiagnosed)
{
    write("store/checkpoint.jsonl", "{\"format\":2,\"slots\":4}\n");
    LintReport report = lintStoreDir((dir_ / "store").string());
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].key, "header");
    EXPECT_NE(report.diagnostics[0].message.find(
                  "missing member \"fingerprint\""),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, UnparseableCheckpointHeaderIsDiagnosed)
{
    write("store/checkpoint.jsonl", "not json at all\n");
    LintReport report = lintStoreDir((dir_ / "store").string());
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].key, "header");
}

TEST_F(LintTest, FreshStoreDirectoryLintsClean)
{
    auto sweep = testsupport::smallSweep();
    sweep.outDir = (dir_ / "store").string();
    runSweep(sweep);
    LintReport report = lintStoreDir(sweep.outDir);
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

/** A results.json member renamed after the run: `query` and `serve`
 *  refuse the store naming it, and so does the lint. */
TEST_F(LintTest, RenamedResultsMemberIsDiagnosed)
{
    auto sweep = testsupport::smallSweep();
    sweep.outDir = (dir_ / "store").string();
    runSweep(sweep);
    std::string path = sweep.outDir + "/results.json";
    std::string text = testsupport::fileText(path);
    std::size_t at = text.find("\"read_latency\"");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 14, "\"read_latencx\"");
    write("store/results.json", text);

    LintReport report = lintStoreDir(sweep.outDir);
    ASSERT_NO_FATAL_FAILURE(expectOneDiagnostic(report, path, ""));
    EXPECT_NE(report.diagnostics[0].message.find(
                  "unknown member \"read_latencx\""),
              std::string::npos)
        << report.diagnostics[0].message;
}

TEST_F(LintTest, RegistriesAreConsistent)
{
    LintReport report = lintRegistries();
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

class CampaignLintTest : public LintTest
{
  protected:
    /** A structurally valid two-shard manifest, one field swappable
     *  at a time. */
    static std::string
    manifestJson(const std::string &fingerprint)
    {
        return "{\n"
               "  \"format\": 2,\n"
               "  \"campaign_format\": 2,\n"
               "  \"fingerprint\": \"" + fingerprint + "\",\n"
               "  \"shard_count\": 2,\n"
               "  \"granularity\": 2\n"
               "}\n";
    }

    static std::string
    journalHeader(const std::string &fingerprint)
    {
        return "{\"format\": 2, \"fingerprint\": \"" + fingerprint +
               "\", \"slots\": 32}\n";
    }
};

TEST_F(CampaignLintTest, PendingCampaignLintsClean)
{
    write("campaign.json", manifestJson("00000000aaaaaaaa"));
    LintReport report = lintCampaignDir(dir_.string());
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

TEST_F(CampaignLintTest, WrongCampaignFormatVersionIsDiagnosed)
{
    std::string bad = manifestJson("00000000aaaaaaaa");
    bad.replace(bad.find("\"campaign_format\": 2"),
                std::string("\"campaign_format\": 2").size(),
                "\"campaign_format\": 99");
    auto path = write("campaign.json", bad);
    LintReport report = lintCampaignDir(dir_.string());
    expectOneDiagnostic(report, path, "");
    EXPECT_NE(report.diagnostics[0].message.find("campaign_format"),
              std::string::npos);
}

TEST_F(CampaignLintTest, ShardCountPastTheBoundIsDiagnosed)
{
    std::string bad = manifestJson("00000000aaaaaaaa");
    bad.replace(bad.find("\"shard_count\": 2"),
                std::string("\"shard_count\": 2").size(),
                "\"shard_count\": 4097");
    auto path = write("campaign.json", bad);
    LintReport report = lintCampaignDir(dir_.string());
    expectOneDiagnostic(report, path, "");
    EXPECT_NE(report.diagnostics[0].message.find("\"shard_count\""),
              std::string::npos);
}

TEST_F(CampaignLintTest, ForeignShardJournalFingerprintIsDiagnosed)
{
    write("campaign.json", manifestJson("00000000aaaaaaaa"));
    auto journal = write("shards/shard-1/checkpoint.jsonl",
                         journalHeader("00000000bbbbbbbb"));
    LintReport report = lintCampaignDir(dir_.string());
    expectOneDiagnostic(report, journal, "fingerprint");
    EXPECT_NE(report.diagnostics[0].message.find("00000000bbbbbbbb"),
              std::string::npos);
}

TEST_F(CampaignLintTest, MergedStoreFingerprintMismatchIsDiagnosed)
{
    write("campaign.json", manifestJson("00000000aaaaaaaa"));
    auto journal = write("merged/checkpoint.jsonl",
                         journalHeader("00000000cccccccc"));
    LintReport report = lintCampaignDir(dir_.string());
    expectOneDiagnostic(report, journal, "fingerprint");
}

TEST_F(CampaignLintTest, RealCampaignLifecycleLintsClean)
{
    std::string dir = (dir_ / "campaign").string();
    SweepConfig sweep = testsupport::smallSweep();
    campaign::planCampaign(dir, sweep, 2);
    ParallelSweepRunner runner(2);
    campaign::runShard(dir, sweep, 0, runner);
    campaign::runShard(dir, sweep, 1, runner);
    campaign::mergeCampaign(dir);

    LintReport report = lintCampaignDir(dir);
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
    // The campaign itself, two shard directories, and the merged store.
    EXPECT_GE(report.checked, 4u);
}

/** A config snapshot edited after planning lints as `campaign run`,
 *  `merge` and `status` load it: refused, naming the file and both
 *  fingerprints. */
TEST_F(CampaignLintTest, EditedConfigSnapshotIsDiagnosed)
{
    const std::string source =
        std::string(NVMEXP_SOURCE_DIR) + "/config/main_dnn_study.json";
    const std::string bytes = testsupport::fileText(source);
    campaign::CampaignManifest manifest = campaign::planCampaign(
        dir_.string(), loadExperimentFile(source).sweep, 2);
    auto config = write("config.json", bytes);
    LintReport planned = lintCampaignDir(dir_.string());
    for (const auto &d : planned.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;

    std::string edited = bytes;
    edited.replace(edited.find("[2, 4, 8]"), 9, "[2, 4, 8, 64]");
    write("config.json", edited);
    LintReport report = lintCampaignDir(dir_.string());
    ASSERT_NO_FATAL_FAILURE(
        expectOneDiagnostic(report, config, "fingerprint"));
    EXPECT_NE(report.diagnostics[0].message.find("now fingerprints to"),
              std::string::npos)
        << report.diagnostics[0].message;
    EXPECT_NE(report.diagnostics[0].message.find(manifest.fingerprint),
              std::string::npos)
        << report.diagnostics[0].message;
}

class BenchLintTest : public LintTest
{
  protected:
    /** The nvmexp build record of an optimized build, as
     *  benchsupport::benchMain writes it. */
    static constexpr const char *kOptimizedBuild =
        "\"nvmexp_ndebug\": \"true\", \"nvmexp_optimize\": \"true\"";

    /** A minimal valid google-benchmark snapshot with the two rows
     *  tools/bench_gate.py requires, one field swappable at a time. */
    static std::string
    benchJson(const std::string &contextBody,
              const std::string &extraRows,
              const std::string &build = kOptimizedBuild)
    {
        return "{\n"
               "  \"context\": {" + contextBody +
               (build.empty() ? "" : ", " + build) + "},\n"
               "  \"benchmarks\": [\n"
               "    {\"name\": \"BM_SweepEvalScalar/1\",\n"
               "     \"run_type\": \"iteration\",\n"
               "     \"real_time\": 1000.0, \"time_unit\": \"ns\"},\n"
               "    {\"name\": \"BM_SweepEvalBatched/1\",\n"
               "     \"run_type\": \"iteration\",\n"
               "     \"real_time\": 250.0, \"time_unit\": \"ns\"}" +
               (extraRows.empty() ? "" : ",\n" + extraRows) +
               "\n  ]\n}\n";
    }
};

TEST_F(BenchLintTest, ValidSnapshotIsClean)
{
    auto path = write("ok.json", benchJson("\"num_cpus\": 8", ""));
    LintReport report = lintBenchFile(path);
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

TEST_F(BenchLintTest, CommittedSnapshotLintsClean)
{
    LintReport report =
        lintBenchFile(std::string(NVMEXP_SOURCE_DIR) +
                      "/BENCH_sweep.json");
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

TEST_F(BenchLintTest, MissingCpuCountIsDiagnosed)
{
    auto path = write("cpus.json", benchJson("\"host_name\": \"x\"", ""));
    LintReport report = lintBenchFile(path);
    expectOneDiagnostic(report, path, "context.num_cpus");
}

TEST_F(BenchLintTest, SnapshotWithoutNvmexpBuildRecordIsDiagnosed)
{
    // A snapshot from before benchMain recorded the build: its
    // library_build_type says nothing about nvmexp.
    auto path = write(
        "norecord.json",
        benchJson("\"num_cpus\": 8, \"library_build_type\": \"release\"",
                  "", ""));
    LintReport report = lintBenchFile(path);
    ASSERT_EQ(report.diagnostics.size(), 2u);
    EXPECT_EQ(report.diagnostics[0].key, "context.nvmexp_ndebug");
    EXPECT_EQ(report.diagnostics[1].key, "context.nvmexp_optimize");
}

TEST_F(BenchLintTest, UnoptimizedNvmexpBuildIsDiagnosed)
{
    auto debug = write(
        "debug.json",
        benchJson("\"num_cpus\": 8", "",
                  "\"nvmexp_ndebug\": \"false\", "
                  "\"nvmexp_optimize\": \"true\""));
    LintReport report = lintBenchFile(debug);
    expectOneDiagnostic(report, debug, "context.nvmexp_ndebug");

    auto unoptimized = write(
        "O0.json",
        benchJson("\"num_cpus\": 8", "",
                  "\"nvmexp_ndebug\": \"true\", "
                  "\"nvmexp_optimize\": \"false\""));
    report = lintBenchFile(unoptimized);
    expectOneDiagnostic(report, unoptimized, "context.nvmexp_optimize");
}

TEST_F(BenchLintTest, UnknownTimeUnitIsDiagnosed)
{
    // "min" is exactly the hazard: bench_gate scales unknown units by
    // 1.0 without a warning, so this row would gate at 60x off.
    auto path = write(
        "unit.json",
        benchJson("\"num_cpus\": 8",
                  "    {\"name\": \"BM_Other/1\","
                  " \"run_type\": \"iteration\","
                  " \"real_time\": 2.0, \"time_unit\": \"min\"}"));
    LintReport report = lintBenchFile(path);
    expectOneDiagnostic(report, path, "benchmarks[2] (BM_Other/1)");
    EXPECT_NE(report.diagnostics[0].message.find("ns/us/ms/s"),
              std::string::npos);
}

TEST_F(BenchLintTest, DuplicateIterationRowIsDiagnosed)
{
    auto path = write(
        "dup.json",
        benchJson("\"num_cpus\": 8",
                  "    {\"name\": \"BM_SweepEvalScalar/1\","
                  " \"run_type\": \"iteration\","
                  " \"real_time\": 999.0, \"time_unit\": \"ns\"}"));
    LintReport report = lintBenchFile(path);
    expectOneDiagnostic(report, path,
                        "benchmarks[2] (BM_SweepEvalScalar/1)");
    EXPECT_NE(report.diagnostics[0].message.find("duplicate"),
              std::string::npos);
}

TEST_F(BenchLintTest, MissingReferenceRowIsDiagnosed)
{
    auto path = write(
        "noref.json",
        "{\n  \"context\": {\"num_cpus\": 8, " +
            std::string(kOptimizedBuild) + "},\n"
        "  \"benchmarks\": [\n"
        "    {\"name\": \"BM_SweepEvalBatched/1\",\n"
        "     \"run_type\": \"iteration\",\n"
        "     \"real_time\": 250.0, \"time_unit\": \"ns\"}\n  ]\n}\n");
    LintReport report = lintBenchFile(path);
    expectOneDiagnostic(report, path, "BM_SweepEvalScalar/1");
}

TEST_F(BenchLintTest, AggregateRowsNeedNoRealTime)
{
    // _mean/_stddev aggregate rows are skipped by the gate; the lint
    // must not demand iteration fields of them.
    auto path = write(
        "agg.json",
        benchJson("\"num_cpus\": 8",
                  "    {\"name\": \"BM_SweepEvalScalar/1_mean\","
                  " \"run_type\": \"aggregate\","
                  " \"time_unit\": \"ns\"}"));
    LintReport report = lintBenchFile(path);
    for (const auto &d : report.diagnostics)
        ADD_FAILURE() << d.file << ": [" << d.key << "] " << d.message;
}

TEST_F(BenchLintTest, NonNumericRealTimeIsDiagnosed)
{
    auto path = write(
        "realtime.json",
        benchJson("\"num_cpus\": 8",
                  "    {\"name\": \"BM_Other/1\","
                  " \"run_type\": \"iteration\","
                  " \"real_time\": \"fast\", \"time_unit\": \"ns\"}"));
    LintReport report = lintBenchFile(path);
    expectOneDiagnostic(report, path, "benchmarks[2] (BM_Other/1)");
    EXPECT_NE(report.diagnostics[0].message.find("real_time"),
              std::string::npos);
}

TEST_F(LintTest, MultipleDefectsYieldMultipleDiagnostics)
{
    auto path = write(
        "multi.json",
        validConfig("  \"pareto\": [\"nope\"],\n"
                    "  \"ecc\": \"bad-scheme\",\n"
                    "  \"extra_key\": 1"));
    LintReport report = lintConfigFile(path);
    EXPECT_EQ(report.diagnostics.size(), 3u);
}

} // namespace
} // namespace lint
} // namespace nvmexp
