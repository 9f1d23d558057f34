/**
 * @file
 * Regenerates Fig. 11: back-gated FeFET co-design study. BG-FeFET
 * (10 ns pulse, 1e12 endurance) closes the write-performance gap to
 * SRAM across graph traffic while keeping the lowest operating power
 * over most of the read-rate range.
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
    auto study = studies::bgFefetStudy();

    Table table("Fig 11: back-gated FeFET vs prior FeFETs and SRAM "
                "(8MB scratchpad)",
                {"Cell", "Traffic", "Reads/s", "Writes/s", "Power[mW]",
                 "LatencyLoad", "Viable"});
    AsciiPlot power("Fig 11a: power vs read rate", "reads per second",
                    "total power [W]");
    AsciiPlot latency("Fig 11b: latency load vs write rate",
                      "writes per second", "latency load");
    power.setXScale(AxisScale::Log10);
    power.setYScale(AxisScale::Log10);
    latency.setXScale(AxisScale::Log10);
    latency.setYScale(AxisScale::Log10);

    std::string lastSeries;
    auto emit = [&](const EvalResult &ev) {
        table.row()
            .add(ev.array->cell.name)
            .add(ev.traffic->name)
            .add(ev.traffic->readsPerSec)
            .add(ev.traffic->writesPerSec)
            .add(ev.totalPower * 1e3)
            .add(ev.latencyLoad)
            .add(ev.viable() ? "yes" : "no");
        if (ev.array->cell.name != lastSeries) {
            power.addSeries(ev.array->cell.name);
            latency.addSeries(ev.array->cell.name);
            lastSeries = ev.array->cell.name;
        }
        power.addPoint(ev.array->cell.name, ev.traffic->readsPerSec,
                       ev.totalPower);
        latency.addPoint(ev.array->cell.name, ev.traffic->writesPerSec,
                         ev.latencyLoad);
    };
    for (const auto &ev : study.generic)
        emit(ev);
    for (const auto &ev : study.kernels)
        emit(ev);
    table.print(std::cout);
    table.writeCsv("fig11_bgfefet.csv");
    power.print(std::cout);
    latency.print(std::cout);
    return 0;
}
