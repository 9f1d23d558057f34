/**
 * @file
 * LLC-replacement example: simulate a SPEC-like benchmark through the
 * built-in L1/L2/LLC hierarchy, then ask which eNVM could replace the
 * 16 MB SRAM LLC (paper Sec. IV-C) — with constraint filtering and a
 * Pareto front over (power, latency load).
 */

#include <iostream>

#include "cachesim/streams.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "store/result_store.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace nvmexp;

int
main()
{
    setQuiet(true);
    const BenchmarkProfile &profile = profileByName("gcc");
    Hierarchy::Config hconfig;
    LlcTraffic llc = runBenchmark(profile, 10'000'000, 2'000'000,
                                  hconfig);
    std::cout << profile.name << ": " << llc.llcReads << " LLC reads, "
              << llc.llcWrites << " LLC writes over " << llc.execTime
              << " s (" << llc.instructions << " instructions)\n";

    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = catalog.studyCells();
    sweep.capacitiesBytes = {16.0 * 1024 * 1024};
    sweep.targets = {OptTarget::ReadEDP, OptTarget::WriteEDP};
    sweep.traffics = {llcTrafficPattern(llc)};
    auto results = runSweep(sweep);

    // Filter: must meet demand and last at least 3 years — the same
    // declarative clauses the CLI's --filter flag and a config's
    // "constraints" array accept.
    store::StoreQuery filter;
    filter.constraints.add("latency_load<=1.0");
    filter.constraints.add("meets_read_bw>=1");
    filter.constraints.add("meets_write_bw>=1");
    filter.constraints.add("lifetime_years>=3");
    auto eligible = store::applyQuery(results, filter);

    Table table("16MB LLC candidates (viable, >=3yr lifetime)",
                {"Cell", "Power[mW]", "LatencyLoad", "Lifetime[yr]"});
    for (const auto &ev : eligible) {
        table.row()
            .add(ev.array->cell.name)
            .add(ev.totalPower * 1e3)
            .add(ev.latencyLoad)
            .add(ev.lifetimeYears());
    }
    table.print(std::cout);

    store::StoreQuery pareto;
    pareto.paretoMetrics = {"total_power", "latency_load"};
    auto front = store::applyQuery(eligible, pareto);
    std::cout << "Pareto-optimal (power x latency load):";
    for (const auto &ev : front)
        std::cout << " " << ev.array->cell.name;
    std::cout << "\n";
    return 0;
}
