/**
 * @file
 * Shared fixtures for the perf_* google-benchmark binaries: the
 * synthetic refine population, the wide sweep configuration the
 * batched-evaluation benchmarks run, and the common main() body.
 *
 * Everything here is deterministic (fixed Rng seeds, fixed catalog
 * cells), so BENCH_*.json numbers are comparable run to run and the
 * CI regression gate can diff them meaningfully.
 */

#ifndef NVMEXP_BENCH_SUPPORT_BENCH_FIXTURES_HH
#define NVMEXP_BENCH_SUPPORT_BENCH_FIXTURES_HH

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "eval/engine.hh"
#include "reliability/reliability.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nvmexp {
namespace benchsupport {

/**
 * A deterministic population of evaluation rows spanning the value
 * ranges real sweeps produce, built without running the (much slower)
 * characterization pipeline so refine benchmarks isolate refine costs.
 */
inline std::vector<EvalResult>
syntheticResults(std::size_t count)
{
    Rng rng(0xBE9C);
    auto traffic = std::make_shared<const TrafficPattern>();
    std::vector<EvalResult> results;
    results.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        ArrayResult array;
        array.capacityBytes = 2.0 * 1024 * 1024;
        array.readLatency = 1e-9 * (1.0 + rng.uniform() * 99.0);
        array.writeLatency = array.readLatency *
            (1.0 + rng.uniform() * 9.0);
        array.readEnergy = 1e-12 * (1.0 + rng.uniform() * 999.0);
        array.writeEnergy = array.readEnergy *
            (1.0 + rng.uniform() * 9.0);
        array.leakage = 1e-3 * rng.uniform();
        array.areaM2 = 1e-7 * (1.0 + rng.uniform() * 9.0);
        array.readBandwidth = 1e9 * (1.0 + rng.uniform() * 99.0);
        array.writeBandwidth = array.readBandwidth / 4.0;
        EvalResult r;
        r.array = std::make_shared<const ArrayResult>(array);
        r.traffic = traffic;
        r.dynamicPower = 1e-3 * (1.0 + rng.uniform() * 499.0);
        r.leakagePower = array.leakage;
        r.totalPower = r.dynamicPower + r.leakagePower;
        r.latencyLoad = rng.uniform() * 2.0;
        r.slowdown = r.latencyLoad > 1.0 ? r.latencyLoad : 1.0;
        r.meetsReadBandwidth = rng.uniform() < 0.9;
        r.meetsWriteBandwidth = rng.uniform() < 0.9;
        r.lifetimeSec = rng.uniform() < 0.2
            ? std::numeric_limits<double>::infinity()
            : 86400.0 * (1.0 + rng.uniform() * 3650.0);
        results.push_back(r);
    }
    return results;
}

/**
 * The wide-sweep configuration the batched-vs-scalar benchmarks run:
 * 4 cells x 2 capacities x 2 targets (16 arrays) against 6 traffic
 * patterns, optionally crossed with a 4-spec reliability axis
 * (16 x 6 x 4 = 384 evaluation slots).
 */
inline SweepConfig
wideSweep(bool reliabilityAxis)
{
    CellCatalog catalog;
    SweepConfig config;
    config.cells = {catalog.optimistic(CellTech::STT),
                    catalog.pessimistic(CellTech::STT),
                    catalog.optimistic(CellTech::RRAM),
                    CellCatalog::sram16()};
    config.capacitiesBytes = {2.0 * 1024 * 1024, 8.0 * 1024 * 1024};
    config.targets = {OptTarget::ReadEDP, OptTarget::Leakage};
    for (int i = 0; i < 6; ++i) {
        std::string name = "traffic";
        name += std::to_string(i);
        config.traffics.push_back(TrafficPattern::fromByteRates(
            name, 1e9 * (double)(1 + i), 1e7 * (double)(1 + i), 512));
    }
    if (reliabilityAxis) {
        reliability::ReliabilitySpec none;
        reliability::ReliabilitySpec secded;
        secded.ecc = "secded-72-64";
        reliability::ReliabilitySpec scrubbed = secded;
        scrubbed.scrubIntervalSec = 3600.0;
        reliability::ReliabilitySpec dec;
        dec.ecc = "dec-78-64";
        config.reliability = {none, secded, scrubbed, dec};
    }
    return config;
}

/**
 * The campaign-sized sweep: the wide sweep's 16 arrays x 6 traffics
 * crossed with a 16-spec reliability axis (4 ECC schemes x 4 scrub
 * intervals) = 1536 evaluation slots. Big enough that the store-backed
 * per-slot cost (journal + artifact serialization) dominates the
 * campaign's fixed costs (planning, characterization, merge).
 */
inline SweepConfig
campaignSweep()
{
    SweepConfig config = wideSweep(false);
    config.reliability.clear();
    for (const char *ecc :
         {"none", "secded-72-64", "dec-78-64", "tec-85-64"}) {
        for (double scrub : {0.0, 600.0, 3600.0, 86400.0}) {
            reliability::ReliabilitySpec spec;
            spec.ecc = ecc;
            spec.scrubIntervalSec = scrub;
            config.reliability.push_back(spec);
        }
    }
    return config;
}

/**
 * The common perf_* main body: quiet logging (characterization
 * warnings would drown the benchmark table), the nvmexp build record,
 * then the stock google-benchmark driver.
 *
 * The context's "library_build_type" describes libbenchmark itself,
 * not nvmexp (a distro libbenchmark reports "debug" under a Release
 * nvmexp build), so nvmexp records its own: "nvmexp_ndebug" and
 * "nvmexp_optimize" are "true" when NDEBUG and __OPTIMIZE__ were set.
 * nvmexplorer_lint --bench refuses a snapshot without both.
 */
inline int
benchMain(int argc, char **argv)
{
    setQuiet(true);
    benchmark::Initialize(&argc, argv);
#ifdef NDEBUG
    benchmark::AddCustomContext("nvmexp_ndebug", "true");
#else
    benchmark::AddCustomContext("nvmexp_ndebug", "false");
#endif
#ifdef __OPTIMIZE__
    benchmark::AddCustomContext("nvmexp_optimize", "true");
#else
    benchmark::AddCustomContext("nvmexp_optimize", "false");
#endif
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

} // namespace benchsupport
} // namespace nvmexp

#endif // NVMEXP_BENCH_SUPPORT_BENCH_FIXTURES_HH
