/**
 * @file
 * Shared test fixtures: the sweep configurations and JSON experiment
 * documents that several suites across tests/core/ and
 * tests/integration/ previously each built their own copy of.
 *
 * referenceSweep() is load-bearing: tests/data/golden_sweep.json was
 * generated from it, so changing it requires an NVMEXP_REGOLD run.
 */

#ifndef NVMEXP_TESTS_SUPPORT_FIXTURES_HH
#define NVMEXP_TESTS_SUPPORT_FIXTURES_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace testsupport {

/** Base fixture: silence informational warnings for the test body. */
class QuietTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

/** Two eNVM cells x two capacities x two targets x two traffics: the
 *  small-but-full cross product the core sweep suites share. */
inline SweepConfig
smallSweep()
{
    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = {catalog.optimistic(CellTech::STT),
                   catalog.optimistic(CellTech::RRAM)};
    sweep.capacitiesBytes = {2.0 * 1024 * 1024, 8.0 * 1024 * 1024};
    sweep.targets = {OptTarget::ReadEDP, OptTarget::Area};
    sweep.traffics = {
        TrafficPattern::fromByteRates("light", 1e9, 1e6, 512),
        TrafficPattern::fromByteRates("heavy", 10e9, 1e8, 512),
    };
    return sweep;
}

/** Wider 4-cell x 2-capacity x 2-target x 3-traffic cross product:
 *  enough items that parallel sharding actually interleaves. */
inline SweepConfig
wideSweep()
{
    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = {catalog.optimistic(CellTech::STT),
                   catalog.pessimistic(CellTech::STT),
                   catalog.optimistic(CellTech::RRAM),
                   CellCatalog::sram16()};
    sweep.capacitiesBytes = {2.0 * 1024 * 1024, 8.0 * 1024 * 1024};
    sweep.targets = {OptTarget::ReadEDP, OptTarget::Leakage};
    sweep.traffics = {
        TrafficPattern::fromByteRates("light", 1e9, 1e6, 512),
        TrafficPattern::fromByteRates("heavy", 10e9, 1e8, 512),
        TrafficPattern::fromByteRates("writeheavy", 2e9, 2e9, 512),
    };
    return sweep;
}

/** wideSweep with a reliability axis: 16 arrays x 3 traffics x 2
 *  specs = 96 slots, every axis the batched path hoists over. */
inline SweepConfig
reliabilitySweep()
{
    SweepConfig config = wideSweep();
    reliability::ReliabilitySpec none;
    reliability::ReliabilitySpec secded;
    secded.ecc = "secded-72-64";
    secded.scrubIntervalSec = 3600.0;
    config.reliability = {none, secded};
    return config;
}

/** The golden-file reference sweep: 3 cells x 2 capacities x 2
 *  targets x 2 traffics = 24 evaluation rows covering SRAM + two eNVM
 *  flavors, both bandwidth regimes, and a finite-lifetime cell. */
inline SweepConfig
referenceSweep()
{
    CellCatalog catalog;
    SweepConfig config;
    config.cells = {CellCatalog::sram16(),
                    catalog.optimistic(CellTech::STT),
                    catalog.pessimistic(CellTech::RRAM)};
    config.capacitiesBytes = {1.0 * 1024 * 1024, 4.0 * 1024 * 1024};
    config.targets = {OptTarget::ReadEDP, OptTarget::WriteLatency};
    config.traffics = {
        TrafficPattern::fromByteRates("dnn-like", 2e9, 2e7, 512),
        TrafficPattern::fromCounts("bursty", 5e6, 5e5, 0.25),
    };
    config.jobs = 4;
    return config;
}

/** The full-schema JSON experiment document the config suites load. */
inline const char *
basicConfigJson()
{
    return R"({
        "experiment": "unit-test-sweep",
        "cells": ["SRAM", "RRAM-Opt"],
        "capacities_mib": [2, 8],
        "targets": ["ReadEDP", "Area"],
        "word_bits": 512,
        "traffic": [
            {"name": "a", "read_bytes_per_sec": 1e9,
             "write_bytes_per_sec": 1e7},
            {"name": "b", "reads": 1e6, "writes": 1e5, "exec_time": 0.5}
        ],
        "constraints": ["latency_load<=1", "lifetime_sec>=31536000",
                        "meets_read_bw>=1", "meets_write_bw>=1"],
        "output_csv": ""
    })";
}

/** Minimal single-cell JSON document with a custom body spliced in
 *  (used by config suites probing one key at a time). */
inline std::string
minimalConfigJson(const std::string &extraKeys)
{
    return R"({
        "cells": ["SRAM"],
        "capacities_mib": [2],
        "traffic": [{"name": "t", "reads": 1}])" +
        (extraKeys.empty() ? std::string() : ", " + extraKeys) + "}";
}

/** Where each object of the JSON text `text` opens: every '{' outside
 *  strings and `//` comments. */
inline std::vector<std::size_t>
objectOpenings(const std::string &text)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '"') {
            for (++i; i < text.size() && text[i] != '"'; ++i)
                i += text[i] == '\\';
        } else if (text.compare(i, 2, "//") == 0) {
            i = text.find('\n', i);
            if (i == std::string::npos)
                break;
        } else if (text[i] == '{') {
            out.push_back(i);
        }
    }
    return out;
}

/** The name of the member unknownMemberAt() inserts. */
constexpr const char *kUnknownMember = "zz_unknown";

/** `text` with the member "zz_unknown": 1 first in the object that
 *  opens at `at`; `where` is set to the position a reader reports once
 *  it has read that member's name, "line L column C". */
inline std::string
unknownMemberAt(std::string text, std::size_t at, std::string &where)
{
    std::size_t next = text.find_first_not_of(" \t\r\n", at + 1);
    bool empty = next != std::string::npos && text[next] == '}';
    std::string member = std::string("\"") + kUnknownMember + "\":";
    text.insert(at + 1, member + (empty ? "1" : "1, "));
    std::size_t after = at + 1 + member.size();
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < after; ++i) {
        line += text[i] == '\n';
        column = text[i] == '\n' ? 1 : column + 1;
    }
    where = "line " + std::to_string(line) + " column " +
        std::to_string(column);
    return text;
}

} // namespace testsupport
} // namespace nvmexp

#endif // NVMEXP_TESTS_SUPPORT_FIXTURES_HH
