/**
 * @file
 * Regenerates Fig. 9: memory power, latency load, and projected
 * lifetime of a 16 MB eNVM LLC under SPEC-like benchmark traffic
 * produced by the built-in cache simulator.
 */

#include <iostream>

#include <cmath>

#include "core/studies.hh"
#include "util/logging.hh"
#include "util/ascii_plot.hh"
#include "util/table.hh"

using namespace nvmexp;

int
main()
{
    setQuiet(true);
    auto evals = studies::llcStudy();

    Table table("Fig 9: 16MB LLC under SPEC-like traffic",
                {"Cell", "Benchmark", "Reads/s", "Writes/s",
                 "Power[mW]", "LatencyLoad", "Lifetime[yr]", "Viable"});
    AsciiPlot power("Fig 9a: power vs read rate", "LLC reads per second",
                    "total power [W]");
    AsciiPlot latency("Fig 9b: latency load vs write rate",
                      "LLC writes per second", "latency load");
    AsciiPlot lifetime("Fig 9c: lifetime vs write rate",
                       "LLC writes per second", "lifetime [yr]");
    for (auto *plot : {&power, &latency, &lifetime}) {
        plot->setXScale(AxisScale::Log10);
        plot->setYScale(AxisScale::Log10);
    }

    std::string lastSeries;
    for (const auto &ev : evals) {
        table.row()
            .add(ev.array->cell.name)
            .add(ev.traffic->name)
            .add(ev.traffic->readsPerSec)
            .add(ev.traffic->writesPerSec)
            .add(ev.totalPower * 1e3)
            .add(ev.latencyLoad)
            .add(ev.lifetimeYears())
            .add(ev.viable() ? "yes" : "no");
        if (ev.array->cell.name != lastSeries) {
            power.addSeries(ev.array->cell.name);
            latency.addSeries(ev.array->cell.name);
            lifetime.addSeries(ev.array->cell.name);
            lastSeries = ev.array->cell.name;
        }
        power.addPoint(ev.array->cell.name, ev.traffic->readsPerSec,
                       ev.totalPower);
        latency.addPoint(ev.array->cell.name, ev.traffic->writesPerSec,
                         ev.latencyLoad);
        if (std::isfinite(ev.lifetimeYears())) {
            lifetime.addPoint(ev.array->cell.name,
                              ev.traffic->writesPerSec,
                              ev.lifetimeYears());
        }
    }
    table.print(std::cout);
    table.writeCsv("fig9_spec_llc.csv");
    power.print(std::cout);
    latency.print(std::cout);
    lifetime.print(std::cout);
    return 0;
}
