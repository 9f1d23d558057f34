#include <sys/stat.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "../support/fixtures.hh"
#include "core/config.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

using testsupport::basicConfigJson;
using testsupport::minimalConfigJson;

class ConfigTest : public testsupport::QuietTest
{
};

TEST_F(ConfigTest, ResolvesNamedCells)
{
    EXPECT_EQ(resolveCellReference("SRAM").tech, CellTech::SRAM);
    MemCell sttOpt = resolveCellReference("STT-Opt");
    EXPECT_EQ(sttOpt.tech, CellTech::STT);
    EXPECT_EQ(sttOpt.flavor, CellFlavor::Optimistic);
    EXPECT_EQ(resolveCellReference("CTT-Opt").tech, CellTech::CTT);
    EXPECT_EQ(resolveCellReference("PCM-Pess").flavor,
              CellFlavor::Pessimistic);
    EXPECT_EQ(resolveCellReference("RRAM-Ref").flavor,
              CellFlavor::Reference);
    EXPECT_EQ(resolveCellReference("FeFET-BG").name, "FeFET-BG");
}

TEST_F(ConfigTest, ResolvesMlcSuffix)
{
    MemCell mlc = resolveCellReference("RRAM-Opt+MLC2");
    EXPECT_EQ(mlc.bitsPerCell, 2);
    EXPECT_NE(mlc.name.find("MLC"), std::string::npos);
}

TEST_F(ConfigTest, UnknownReferencesAreFatal)
{
    EXPECT_EXIT(resolveCellReference("Quantum-Opt"),
                ::testing::ExitedWithCode(1), "unknown cell");
    EXPECT_EXIT(resolveCellReference("bogus"),
                ::testing::ExitedWithCode(1), "unknown cell");
}

TEST_F(ConfigTest, LoadsFullSchema)
{
    ExperimentConfig config =
        loadExperiment(JsonValue::parse(basicConfigJson()));
    EXPECT_EQ(config.name, "unit-test-sweep");
    EXPECT_EQ(config.sweep.cells.size(), 2u);
    EXPECT_EQ(config.sweep.capacitiesBytes.size(), 2u);
    EXPECT_DOUBLE_EQ(config.sweep.capacitiesBytes[1],
                     8.0 * 1024 * 1024);
    EXPECT_EQ(config.sweep.targets.size(), 2u);
    EXPECT_EQ(config.sweep.traffics.size(), 2u);
    EXPECT_DOUBLE_EQ(config.sweep.traffics[1].readsPerSec, 2e6);
    // Latency load ceiling, lifetime floor, and the two bandwidth
    // requirements, in declared order.
    ASSERT_EQ(config.query.constraints.size(), 4u);
    const auto &lifetime = config.query.constraints.clauses()[1];
    EXPECT_EQ(lifetime.metric, "lifetime_sec");
    EXPECT_EQ(lifetime.op, metrics::ConstraintOp::GE);
    EXPECT_NEAR(lifetime.bound, 365.0 * 86400.0, 1.0);
}

TEST_F(ConfigTest, StudySetExpands)
{
    auto doc = JsonValue::parse(R"({
        "cells": ["study-set"],
        "capacities_mib": [2],
        "traffic": [{"name": "t", "reads": 1e5, "writes": 0}]
    })");
    ExperimentConfig config = loadExperiment(doc);
    EXPECT_EQ(config.sweep.cells.size(), 12u);
    // Defaults applied.
    EXPECT_EQ(config.sweep.targets.size(), 1u);
    EXPECT_EQ(config.sweep.wordBits, 512);
    EXPECT_TRUE(config.query.empty());
}

TEST_F(ConfigTest, GenericGridTrafficExpands)
{
    auto doc = JsonValue::parse(R"({
        "cells": ["STT-Opt"],
        "capacities_mib": [2],
        "word_bits": 64,
        "traffic": [{"kind": "generic_grid",
                     "read_lo": 1e9, "read_hi": 1e10,
                     "write_lo": 1e6, "write_hi": 1e8,
                     "steps": 3}]
    })");
    ExperimentConfig config = loadExperiment(doc);
    EXPECT_EQ(config.sweep.traffics.size(), 9u);
}

TEST_F(ConfigTest, CustomCellsOverrideBaseParameters)
{
    auto doc = JsonValue::parse(R"({
        "cells": [{"name": "hero", "base": "STT-Opt",
                   "write_pulse_ns": 1.0, "endurance": 1e16}],
        "capacities_mib": [2],
        "traffic": [{"name": "t", "reads": 1e5, "writes": 1e4}]
    })");
    ExperimentConfig config = loadExperiment(doc);
    ASSERT_EQ(config.sweep.cells.size(), 1u);
    EXPECT_EQ(config.sweep.cells[0].name, "hero");
    EXPECT_DOUBLE_EQ(config.sweep.cells[0].setPulse, 1e-9);
    EXPECT_DOUBLE_EQ(config.sweep.cells[0].endurance, 1e16);
}

TEST_F(ConfigTest, RunExperimentProducesDashboardRows)
{
    ExperimentConfig config =
        loadExperiment(JsonValue::parse(basicConfigJson()));
    config.query = {};
    Table table = runExperiment(config);
    // 2 cells x 2 capacities x 2 targets x 2 traffics.
    EXPECT_EQ(table.numRows(), 16u);
    EXPECT_EQ(table.headers().front(), "Cell");
}

TEST_F(ConfigTest, ConstraintsFilterRows)
{
    ExperimentConfig config =
        loadExperiment(JsonValue::parse(basicConfigJson()));
    Table filtered = runExperiment(config);
    config.query = {};
    Table all = runExperiment(config);
    EXPECT_LT(filtered.numRows(), all.numRows());
}

TEST_F(ConfigTest, ShippedConfigFilesLoad)
{
    for (const char *path : {"config/main_dnn_study.json",
                             "config/graph_scratchpad_study.json",
                             "config/llc_replacement_study.json",
                             "config/llc_refine_study.json",
                             "config/kv_store_study.json",
                             "config/wal_study.json",
                             "config/intermittent_dnn_study.json"}) {
        std::string full = std::string(NVMEXP_SOURCE_DIR) + "/" + path;
        ExperimentConfig config = loadExperimentFile(full);
        EXPECT_FALSE(config.sweep.cells.empty()) << path;
        EXPECT_TRUE(!config.sweep.traffics.empty() ||
                    !config.sweep.workloads.empty())
            << path;
    }
}

/** A config can come from a pipe (`nvmexplorer_cli <(gen-config)`):
 *  a file with no size is read to its end, not refused. */
TEST_F(ConfigTest, ConfigFileCanBeAPipe)
{
    std::string shipped =
        std::string(NVMEXP_SOURCE_DIR) + "/config/main_dnn_study.json";
    std::string fifo = ::testing::TempDir() + "nvmexp_config_fifo";
    std::filesystem::remove(fifo);
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::thread writer([&] {
        std::ofstream(fifo) << std::ifstream(shipped).rdbuf();
    });
    ExperimentConfig piped = loadExperimentFile(fifo);
    writer.join();
    ExperimentConfig file = loadExperimentFile(shipped);
    EXPECT_EQ(piped.sweep.cells.size(), file.sweep.cells.size());
    EXPECT_EQ(store::sweepFingerprint(piped.sweep),
              store::sweepFingerprint(file.sweep));
    std::filesystem::remove(fifo);
}

TEST_F(ConfigTest, WorkloadKeysThreadThroughToTheSweep)
{
    // Both the "workloads" array and the singular "workload" object
    // are accepted; specs are kept raw for the sweep engine to expand
    // through the registry.
    ExperimentConfig config = loadExperiment(JsonValue::parse(R"({
        "cells": ["SRAM"],
        "capacities_mib": [2],
        "workloads": [
            {"name": "kv-store", "zipf_skew": 0.8},
            {"name": "wal"}
        ],
        "workload": {"name": "dnn", "network": "resnet26"}
    })"));
    ASSERT_EQ(config.sweep.workloads.size(), 3u);
    EXPECT_TRUE(config.sweep.traffics.empty());
    EXPECT_EQ(config.sweep.workloads[0].text(),
              R"({"name": "kv-store", "zipf_skew": 0.8})");
    EXPECT_EQ(config.sweep.workloads[2].text(),
              R"({"name": "dnn", "network": "resnet26"})");

    // The sweep expands them: 1 cell x 1 capacity x 1 target x
    // (1 kv + 2 wal + 1 dnn) patterns.
    auto results = runSweep(config.sweep);
    EXPECT_EQ(results.size(), 4u);
}

TEST_F(ConfigTest, WorkloadErrorsAreFatalAtLoadTime)
{
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("workloads": [{"name": "does-not-exist"}])"))),
        ::testing::ExitedWithCode(1), "unknown workload");

    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("workloads": [{"name": "kv-store", "zipf": 1}])"))),
        ::testing::ExitedWithCode(1), "unknown parameter");

    // A wrapper's nested spec is validated at load time too.
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("workloads": [{"name": "intermittent",
                              "inner": {"name": "nope"}}])"))),
        ::testing::ExitedWithCode(1), "unknown workload");
}

TEST_F(ConfigTest, ReliabilityBlockThreadsThroughToTheSweep)
{
    // Array-valued keys sweep: schemes x scrub intervals,
    // scheme-major, and the dashboard grows reliability columns.
    ExperimentConfig config =
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"ecc": ["none", "secded-72-64"],
                               "scrub_interval_sec": [0, 3600]})")));
    EXPECT_TRUE(config.showReliability);
    ASSERT_EQ(config.sweep.reliability.size(), 4u);
    EXPECT_EQ(config.sweep.reliability[0].ecc, "none");
    EXPECT_EQ(config.sweep.reliability[0].scrubIntervalSec, 0.0);
    EXPECT_EQ(config.sweep.reliability[1].scrubIntervalSec, 3600.0);
    EXPECT_EQ(config.sweep.reliability[2].ecc, "secded-72-64");

    // The "ecc" shorthand: one scheme name.
    ExperimentConfig shorthand =
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("ecc": "secded-72-64")")));
    EXPECT_TRUE(shorthand.showReliability);
    ASSERT_EQ(shorthand.sweep.reliability.size(), 1u);
    EXPECT_EQ(shorthand.sweep.reliability[0].ecc, "secded-72-64");
    EXPECT_EQ(shorthand.sweep.reliability[0].scrubIntervalSec, 0.0);

    // No block at all: no axis, no extra columns.
    ExperimentConfig bare =
        loadExperiment(JsonValue::parse(minimalConfigJson("")));
    EXPECT_FALSE(bare.showReliability);
    EXPECT_TRUE(bare.sweep.reliability.empty());
}

TEST_F(ConfigTest, ReliabilityErrorsAreFatalAtLoadTime)
{
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"ecc": "raid-z"})"))),
        ::testing::ExitedWithCode(1), "'raid-z' unknown");
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"scrub_interval_sec": -5})"))),
        ::testing::ExitedWithCode(1), "scrub interval");
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"ecc": []})"))),
        ::testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"scheme": "none"})"))),
        ::testing::ExitedWithCode(1),
        "reliability: unknown member \"scheme\" \\(known: ecc, "
        "scrub_interval_sec\\)");
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("reliability": {"ecc": "none"}, "ecc": "none")"))),
        ::testing::ExitedWithCode(1), "not both");
}

TEST_F(ConfigTest, UnknownTopLevelKeyIsFatal)
{
    // A typo'd "targets" must not be ignored: the config would run
    // the default ReadEDP sweep and exit 0.
    EXPECT_EXIT(
        loadExperiment(JsonValue::parse(minimalConfigJson(
            R"("experiment": "typo", "tagets": ["WriteEDP"])"))),
        ::testing::ExitedWithCode(1),
        "unknown member \"tagets\" \\(known: .*targets");
    // The one list, which nvmexplorer_lint reads too.
    EXPECT_TRUE(knownConfigKeys().count("targets"));
    EXPECT_TRUE(knownConfigKeys().count("top_k"));
    EXPECT_FALSE(knownConfigKeys().count("tagets"));
}

TEST_F(ConfigTest, CapacitiesMustBeFiniteAndBuildable)
{
    // NaN and Infinity used to load and run to an empty table; zero,
    // negative and sub-KiB sizes failed only inside the run, naming
    // neither the config nor the key (found by the config fuzz suite).
    for (const char *mib : {"NaN", "Infinity", "-Infinity", "0", "-1",
                            "1e-320", "0.0005"}) {
        EXPECT_EXIT(
            loadExperiment(JsonValue::parse(
                std::string(R"({"experiment": "cap", "cells": ["SRAM"],
                                "traffic": [{"name": "t", "reads": 1}],
                                "capacities_mib": [)") +
                mib + "]}")),
            ::testing::ExitedWithCode(1),
            "capacities_mib\\[0\\]: must be finite and at least 1 KiB "
            ".*, got ")
            << mib;
    }
    ExperimentConfig smallest = loadExperiment(JsonValue::parse(
        R"({"cells": ["SRAM"], "capacities_mib": [0.0009765625],
            "traffic": [{"name": "t", "reads": 1}]})"));
    EXPECT_EQ(smallest.sweep.capacitiesBytes.front(), 1024.0);
}

TEST_F(ConfigTest, FileRejectionsNameTheFile)
{
    // Past the parser, a rejection used to name only a JSON member
    // ("JSON: expected an object holding 'tech'" for a cell given as a
    // number), so a multi-config run did not say which file failed.
    std::string path = ::testing::TempDir() + "nvmexp_bad_cell.json";
    {
        std::ofstream out(path);
        out << R"({"cells": [5], "capacities_mib": [2],
                   "traffic": [{"name": "t", "reads": 1}]})";
    }
    ScopedFatalThrows guard;
    try {
        loadExperimentFile(path);
        FAIL() << "a number accepted as a cell";
    } catch (const FatalError &error) {
        EXPECT_EQ(std::string(error.what()),
                  "'" + path + "' at line 1 column 12: cells[0]: must be "
                  "a cell reference or a custom cell object");
    }
}

/** How a run executes comes from the command line alone: a config
 *  still carrying a run setting is refused naming the file, the key,
 *  and the flag that carries it, so one file never loads to different
 *  settings in different processes. */
TEST_F(ConfigTest, RunSettingKeysAreRefusedNamingTheirFlag)
{
    struct Case
    {
        const char *member;
        const char *key;
        const char *flag;
    };
    const Case cases[] = {
        {R"("jobs": 4)", "jobs", "--jobs"},
        {R"("out_dir": "/tmp/nvmexp-store")", "out_dir", "--out"},
        {R"("resume": true)", "resume", "--resume"},
        {R"("campaign": {"shards": 4})", "campaign",
         "campaign plan --shards"},
    };
    std::string path = ::testing::TempDir() + "nvmexp_run_setting.json";
    ScopedFatalThrows guard;
    for (const Case &c : cases) {
        std::ofstream(path) << minimalConfigJson(c.member);
        try {
            loadExperimentFile(path);
            ADD_FAILURE() << "\"" << c.key << "\" was accepted";
        } catch (const FatalError &error) {
            std::string message = error.what();
            EXPECT_EQ(message.rfind("'" + path + "' at line ", 0), 0u)
                << message;
            EXPECT_NE(message.find(std::string("\"") + c.key + "\""),
                      std::string::npos) << message;
            EXPECT_NE(message.find(c.flag), std::string::npos) << message;
        }
        EXPECT_FALSE(knownConfigKeys().count(c.key)) << c.key;
    }

    // Every other key still loads, output_csv included ("ecc" is the
    // shorthand of "reliability" and cannot join it).
    const std::string everyKey = R"({
        "experiment": "every-key", "cells": ["SRAM"],
        "capacities_mib": [2], "word_bits": 64, "node_nm": 22,
        "sram_node_nm": 16, "targets": ["ReadEDP"],
        "traffic": [{"name": "t", "reads": 1}],
        "workloads": [{"name": "wal"}], "workload": {"name": "kv-store"},
        "reliability": {"ecc": "none"},
        "constraints": ["latency_load<=1"],
        "pareto": ["total_power", "read_latency"],
        "top_k": {"metric": "total_power", "k": 3},
        "output_csv": "every-key.csv"})";
    for (const auto &key : knownConfigKeys())
        EXPECT_TRUE(key == "ecc" ||
                    everyKey.find("\"" + key + "\"") != std::string::npos)
            << key;
    std::ofstream(path) << everyKey;
    ExperimentConfig config = loadExperimentFile(path);
    EXPECT_EQ(config.outputCsv, "every-key.csv");
    EXPECT_EQ(config.query.topK, 3u);
    EXPECT_EQ(config.sweep.jobs, 1);
    EXPECT_TRUE(config.sweep.outDir.empty());
    EXPECT_FALSE(config.sweep.resume);
}

TEST_F(ConfigTest, ConfigWithoutTrafficOrWorkloadsIsFatal)
{
    EXPECT_EXIT(loadExperiment(JsonValue::parse(R"({
        "cells": ["SRAM"],
        "capacities_mib": [2]
    })")), ::testing::ExitedWithCode(1),
                "traffic.*patterns or .*workloads");
}

TEST_F(ConfigTest, BadConfigsAreFatal)
{
    EXPECT_EXIT(loadExperiment(JsonValue::parse(R"({
        "cells": [],
        "capacities_mib": [2],
        "traffic": [{"name": "t", "reads": 1}]
    })")), ::testing::ExitedWithCode(1), "no cells");

    EXPECT_EXIT(loadExperiment(JsonValue::parse(R"({
        "cells": ["SRAM"],
        "capacities_mib": [2],
        "traffic": [{"name": "t"}]
    })")), ::testing::ExitedWithCode(1), "byte rates or access");

    EXPECT_EXIT(loadExperiment(JsonValue::parse(R"({
        "cells": ["SRAM"],
        "capacities_mib": [2],
        "targets": ["FastestEver"],
        "traffic": [{"name": "t", "reads": 1}]
    })")), ::testing::ExitedWithCode(1),
                "targets\\[0\\]: must be one of .*got \"FastestEver\"");
}

TEST_F(ConfigTest, DeclarativeConstraintArrayLoads)
{
    ExperimentConfig config = loadExperiment(
        JsonValue::parse(minimalConfigJson(R"("constraints": [
            "total_power<0.5",
            {"metric": "lifetime_years", "op": ">=", "bound": 3}
        ])")));
    const auto &clauses = config.query.constraints.clauses();
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_EQ(clauses[0].text(), "total_power<0.5");
    EXPECT_EQ(clauses[1].metric, "lifetime_years");
    EXPECT_EQ(clauses[1].op, metrics::ConstraintOp::GE);
}

TEST_F(ConfigTest, ParetoAndTopKeysLoad)
{
    ExperimentConfig config = loadExperiment(
        JsonValue::parse(minimalConfigJson(
            R"("pareto": ["total_power", "latency_load",
                          "read_latency"],
               "top_k": {"metric": "read_edp", "k": 4})")));
    ASSERT_EQ(config.query.paretoMetrics.size(), 3u);
    EXPECT_EQ(config.query.paretoMetrics[2], "read_latency");
    EXPECT_EQ(config.query.topMetric, "read_edp");
    EXPECT_EQ(config.query.topK, 4u);
}

TEST_F(ConfigTest, RunExperimentAppliesParetoAndTopK)
{
    // Unrefined baseline: 2 cells x 2 capacities x 2 targets x 2
    // traffics = 16 rows.
    ExperimentConfig config =
        loadExperiment(JsonValue::parse(basicConfigJson()));
    config.query = {};
    Table all = runExperiment(config);

    config.query.paretoMetrics = {"total_power", "read_latency"};
    Table front = runExperiment(config);
    EXPECT_LT(front.numRows(), all.numRows());
    EXPECT_GE(front.numRows(), 1u);

    config.query.paretoMetrics.clear();
    config.query.topMetric = "total_power";
    config.query.topK = 3;
    Table top = runExperiment(config);
    EXPECT_EQ(top.numRows(), 3u);
}

TEST_F(ConfigTest, RefineKeyErrorPathsAreFatalAtLoadTime)
{
    // Unknown metric in each of the three keys.
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("constraints": ["warp_factor<1"])"))),
                ::testing::ExitedWithCode(1),
                "'warp_factor' unknown");
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("pareto": ["total_power", "warp_factor"])"))),
                ::testing::ExitedWithCode(1),
                "'warp_factor' unknown");
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("top_k": {"metric": "warp_factor", "k": 3})"))),
                ::testing::ExitedWithCode(1),
                "'warp_factor' unknown");

    // Bad operator and malformed bound carry the config context.
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("constraints": [{"metric": "total_power",
                        "op": "~", "bound": 1}])"))),
                ::testing::ExitedWithCode(1), "operator '~' unknown");
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("constraints": ["total_power<fast"])"))),
                ::testing::ExitedWithCode(1), "not a number");

    // top_k needs a positive integer k.
    for (const char *k : {"0", "-2", "2.5"}) {
        EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                        std::string(R"("top_k": {"metric":
                            "total_power", "k": )") + k + "}"))),
                    ::testing::ExitedWithCode(1),
                    "top_k.k: must be a whole number in \\[1, ")
            << k;
    }

    // An empty pareto list is rejected.
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("pareto": [])"))),
                ::testing::ExitedWithCode(1), "at least one metric");

    // "constraints" must be the clause array — a bare string must not
    // silently load as some default filter.
    EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                    R"("constraints": "total_power<0.5")"))),
                ::testing::ExitedWithCode(1),
                "must be an array of clauses");
}

TEST_F(ConfigTest, LegacyConstraintObjectIsFatalWithTheClauseSpelling)
{
    // The fixed-field object ignored unknown keys, so the typo
    // "max_power" (for "max_power_w") filtered nothing. Any object
    // form now fails at load, naming the config and the clauses.
    for (const char *legacy :
         {R"({"max_latency_load": 1.0, "require_bandwidth": true})",
          R"({"max_power": 1e-9})", "{}"}) {
        EXPECT_EXIT(
            loadExperiment(JsonValue::parse(minimalConfigJson(
                std::string(R"("experiment": "old", "constraints": )") +
                legacy))),
            ::testing::ExitedWithCode(1),
            "\"constraints\" must be an array of "
            "clauses, e\\.g\\. \\[\"latency_load<=1\", "
            "\"meets_read_bw>=1\", \"meets_write_bw>=1\"\\]")
            << legacy;
    }
}

TEST_F(ConfigTest, IntegerKeysRejectFractionsAndOutOfRangeValues)
{
    // Each key is checked as a double before any cast: a fraction
    // would silently truncate, and an out-of-int-range value is UB.
    struct Case
    {
        const char *key;
        const char *bad;
    };
    const Case cases[] = {
        {"word_bits", "64.9"},    {"word_bits", "1e12"},
        {"word_bits", "4"},       {"node_nm", "22.5"},
        {"node_nm", "5"},         {"sram_node_nm", "16.5"},
        {"sram_node_nm", "131"},
    };
    for (const auto &c : cases) {
        EXPECT_EXIT(loadExperiment(JsonValue::parse(minimalConfigJson(
                        std::string(R"("experiment": "ints", ")") +
                        c.key + "\": " + c.bad))),
                    ::testing::ExitedWithCode(1),
                    std::string("\"") + c.key +
                        "\" must be a whole number in \\[.*got")
            << c.key << " = " << c.bad;
    }

    // A generic grid has steps^2 patterns: "steps": 2.9 used to run a
    // 2x2 grid.
    for (const char *steps : {"2.9", "1", "1001"}) {
        EXPECT_EXIT(loadExperiment(JsonValue::parse(
                        std::string(R"({"cells": ["SRAM"],
                            "capacities_mib": [2],
                            "traffic": [{"kind": "generic_grid",
                                "read_lo": 1e9, "read_hi": 1e10,
                                "write_lo": 1e6, "write_hi": 1e8,
                                "steps": )") + steps + "}]}")),
                    ::testing::ExitedWithCode(1),
                    "traffic\\[0\\].steps: must be a whole number in "
                    "\\[2, 1000\\]")
            << steps;
    }

    // In-range whole numbers load unchanged.
    ExperimentConfig ok = loadExperiment(JsonValue::parse(
        minimalConfigJson(R"("word_bits": 64, "node_nm": 45,
                             "sram_node_nm": 7)")));
    EXPECT_EQ(ok.sweep.wordBits, 64);
    EXPECT_EQ(ok.sweep.nodeNm, 45);
    EXPECT_EQ(ok.sweep.sramNodeNm, 7);
}

/** A config whose members are `cells`, `capacities`, `traffic`, and
 *  `extra` (more members, or nothing), one per line. */
std::string
configWith(const std::string &cells, const std::string &capacities,
           const std::string &traffic, const std::string &extra = "")
{
    return "{\"experiment\": \"nested\",\n\"cells\": " + cells +
        ",\n\"capacities_mib\": " + capacities + ",\n\"traffic\": " +
        traffic + (extra.empty() ? "" : ",\n" + extra) + "}\n";
}

/** Load `text` from a file; the refusal, which must name the file and
 *  a line and column. */
std::string
refusal(const std::string &text)
{
    std::string path = ::testing::TempDir() + "nvmexp_nested_member.json";
    std::ofstream(path, std::ios::trunc) << text;
    ScopedFatalThrows guard;
    try {
        loadExperimentFile(path);
    } catch (const FatalError &error) {
        std::string message = error.what();
        EXPECT_EQ(message.rfind("'" + path + "' at line ", 0), 0u)
            << message;
        EXPECT_NE(message.find(" column "), std::string::npos) << message;
        return message;
    }
    ADD_FAILURE() << "loaded:\n" << text;
    return "";
}

/** Every member, at every depth, is declared: a misspelled nested key
 *  used to load and run on its default (a custom cell's "endurence"
 *  kept the catalog endurance, and a lifetime from it), and a wrong
 *  kind named no member. */
TEST_F(ConfigTest, MisspelledNestedMembersAreRefusedByName)
{
    const std::string cells = R"(["SRAM"])", caps = "[2]",
                      traffic = R"([{"name": "t", "reads": 1}])";
    const std::string grid = R"({"kind": "generic_grid", "read_lo": 1e9,
        "read_hi": 1e10, "write_lo": 1e6, "write_hi": 1e8)";
    struct Case
    {
        std::string text;
        std::string expected;
    };
    const Case cases[] = {
        {configWith(R"([{"tech": "RRAM", "endurence": 1e3}])", caps,
                    traffic),
         "cells[0]: unknown member \"endurence\" (known: base, tech, "},
        {configWith(cells, caps,
                    R"([{"name": "t", "reads": 1, "exec_tim": 5}])"),
         "traffic[0]: unknown member \"exec_tim\" (known: name, "},
        {configWith(cells, caps, "[" + grid + R"(, "stepz": 5}])"),
         "traffic[0]: unknown member \"stepz\" (known: kind, "},
        {configWith(cells, caps, traffic,
                    R"("constraints": [{"metric": "total_power",
                        "op": "<", "bound": 1, "unit": "mW"}])"),
         "constraints[0]: unknown member \"unit\" (known: metric, op, "
         "bound)"},
        {configWith(cells, caps, traffic,
                    R"("constraints": [{"metric": "total_power",
                        "op": "<", "bound": 1, "bund": 99}])"),
         "constraints[0]: unknown member \"bund\""},
        {configWith(cells, caps, traffic,
                    R"("top_k": {"metric": "total_power", "k": 3,
                                 "direction": "max"})"),
         "top_k: unknown member \"direction\" (known: metric, k)"},
        {configWith(cells, caps, traffic,
                    R"("top_k": {"metric": "total_power", "k": 3,
                                 "dir": "max"})"),
         "top_k: unknown member \"dir\" (known: metric, k)"},
        {configWith(cells, R"(["2"])", traffic),
         "capacities_mib[0]: must be a number"},
    };
    for (const Case &c : cases) {
        std::string message = refusal(c.text);
        EXPECT_NE(message.find(c.expected), std::string::npos)
            << message << "\nexpected: " << c.expected;
    }
}

/** Workload specs nest (an "intermittent" spec's "inner"), so their
 *  decoder recurses; a config whose specs nest past the reader's depth
 *  cap is refused by the iterative skip first, naming the file. */
TEST_F(ConfigTest, WorkloadSpecsNestedPastTheDepthCapAreRefused)
{
    const std::size_t depth = 400000;
    std::string spec;
    spec.reserve(depth * 32);
    for (std::size_t i = 0; i < depth; ++i)
        spec += R"({"name":"intermittent","inner":)";
    spec += R"({"name":"wal"})";
    spec.append(depth, '}');
    std::string path = ::testing::TempDir() + "nvmexp_deep_specs.json";
    std::ofstream(path, std::ios::trunc)
        << configWith(R"(["SRAM"])", "[2]", "[]",
                      "\"workloads\": [" + spec + "]");
    ScopedFatalThrows guard;
    try {
        loadExperimentFile(path);
        ADD_FAILURE() << "400k nested workload specs loaded";
    } catch (const FatalError &error) {
        std::string message = error.what();
        EXPECT_NE(message.find("'" + path + "' at line 5 column "),
                  std::string::npos)
            << message.substr(0, 300);
        EXPECT_NE(message.find("nesting deeper than 512 levels"),
                  std::string::npos)
            << message.substr(0, 300);
    }
    std::filesystem::remove(path);
}

/** Members that exclude each other used to load, one of them silently
 *  dropped: a traffic entry's counts beside its byte rates, a custom
 *  cell's "tech" beside its "base", and a grid's "name". */
TEST_F(ConfigTest, MembersThatExcludeEachOtherAreRefused)
{
    const std::string cells = R"(["SRAM"])", caps = "[2]",
                      traffic = R"([{"name": "t", "reads": 1}])";
    struct Case
    {
        std::string text;
        std::string expected;
    };
    const Case cases[] = {
        {configWith(cells, caps,
                    R"([{"name": "t", "read_bytes_per_sec": 1e9,
                         "write_bytes_per_sec": 1e8, "reads": 5,
                         "writes": 1}])"),
         "traffic[0]: byte rates (\"read_bytes_per_sec\", "
         "\"write_bytes_per_sec\") and access counts (\"reads\", "
         "\"writes\") exclude each other"},
        {configWith(R"([{"base": "STT-Opt", "tech": "RRAM"}])", caps,
                    traffic),
         "cells[0]: \"base\" and \"tech\" exclude each other"},
        {configWith(cells, caps,
                    R"([{"kind": "generic_grid", "name": "g",
                         "read_lo": 1e9, "read_hi": 1e10,
                         "write_lo": 1e6, "write_hi": 1e8}])"),
         "traffic[0]: unknown member \"name\" (known: kind, read_lo, "},
    };
    for (const Case &c : cases) {
        std::string message = refusal(c.text);
        EXPECT_NE(message.find(c.expected), std::string::npos)
            << message << "\nexpected: " << c.expected;
    }
}

} // namespace
} // namespace nvmexp
