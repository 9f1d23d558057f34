/**
 * @file
 * Regenerates Fig. 8: graph-processing scratchpad study. Total memory
 * power vs read traffic, total memory latency vs write traffic, and
 * projected lifetime vs write traffic over generic 1-10 GB/s x
 * 1-100 MB/s patterns, plus BFS points for two social graphs.
 */

#include <iostream>

#include <cmath>

#include "core/studies.hh"
#include "util/logging.hh"
#include "util/ascii_plot.hh"
#include "util/table.hh"

using namespace nvmexp;

namespace {

void
addPlots(const std::vector<EvalResult> &results, const char *tag)
{
    AsciiPlot power(std::string("Fig 8a power vs reads/s (") + tag + ")",
                    "reads per second", "total power [W]");
    AsciiPlot latency(std::string("Fig 8b latency load vs writes/s (") +
                          tag + ")",
                      "writes per second", "latency load [s/s]");
    AsciiPlot lifetime(std::string("Fig 8c lifetime vs writes/s (") +
                           tag + ")",
                       "writes per second", "lifetime [yr]");
    for (auto *plot : {&power, &latency, &lifetime}) {
        plot->setXScale(AxisScale::Log10);
        plot->setYScale(AxisScale::Log10);
    }
    std::string lastSeries;
    for (const auto &ev : results) {
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
    power.print(std::cout);
    latency.print(std::cout);
    lifetime.print(std::cout);
}

} // namespace

int
main()
{
    setQuiet(true);
    auto study = studies::graphStudy();

    Table generic("Fig 8: generic graph traffic sweep (8MB, 8B words)",
                  {"Cell", "Reads/s", "Writes/s", "Power[mW]",
                   "LatencyLoad", "Lifetime[yr]", "Viable"});
    for (const auto &ev : study.generic) {
        generic.row()
            .add(ev.array->cell.name)
            .add(ev.traffic->readsPerSec)
            .add(ev.traffic->writesPerSec)
            .add(ev.totalPower * 1e3)
            .add(ev.latencyLoad)
            .add(ev.lifetimeYears())
            .add(ev.viable() ? "yes" : "no");
    }
    generic.print(std::cout);
    generic.writeCsv("fig8_generic.csv");
    addPlots(study.generic, "generic");

    Table kernels("Fig 8: BFS kernel points (pink markers)",
                  {"Cell", "Kernel", "Power[mW]", "LatencyLoad",
                   "Lifetime[yr]", "Viable"});
    for (const auto &ev : study.kernels) {
        kernels.row()
            .add(ev.array->cell.name)
            .add(ev.traffic->name)
            .add(ev.totalPower * 1e3)
            .add(ev.latencyLoad)
            .add(ev.lifetimeYears())
            .add(ev.viable() ? "yes" : "no");
    }
    kernels.print(std::cout);
    kernels.writeCsv("fig8_kernels.csv");
    return 0;
}
