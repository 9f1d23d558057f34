/**
 * @file
 * Regenerates Fig. 10: 16 MB LLC array characteristics in isolation —
 * read energy vs. read latency and write energy vs. write latency per
 * technology across optimization targets.
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
    auto arrays = studies::llcArrays();

    Table table("Fig 10: 16MB LLC array characteristics",
                {"Cell", "Target", "ReadLat[ns]", "ReadE[pJ]",
                 "WriteLat[ns]", "WriteE[pJ]", "AreaEff"});
    AsciiPlot reads("Fig 10a: read energy vs read latency (16MB)",
                    "read latency [s]", "read energy [J]");
    AsciiPlot writes("Fig 10b: write energy vs write latency (16MB)",
                     "write latency [s]", "write energy [J]");
    reads.setXScale(AxisScale::Log10);
    reads.setYScale(AxisScale::Log10);
    writes.setXScale(AxisScale::Log10);
    writes.setYScale(AxisScale::Log10);

    const auto &targets = allOptTargets();
    std::string lastSeries;
    for (std::size_t i = 0; i < arrays.size(); ++i) {
        const auto &array = arrays[i];
        table.row()
            .add(array.cell.name)
            .add(optTargetName(targets[i % targets.size()]))
            .add(array.readLatency * 1e9)
            .add(array.readEnergy * 1e12)
            .add(array.writeLatency * 1e9)
            .add(array.writeEnergy * 1e12)
            .add(array.areaEfficiency);
        if (array.cell.name != lastSeries) {
            reads.addSeries(array.cell.name);
            writes.addSeries(array.cell.name);
            lastSeries = array.cell.name;
        }
        reads.addPoint(array.cell.name, array.readLatency,
                       array.readEnergy);
        writes.addPoint(array.cell.name, array.writeLatency,
                        array.writeEnergy);
    }
    table.print(std::cout);
    table.writeCsv("fig10_llc_arrays.csv");
    reads.print(std::cout);
    writes.print(std::cout);
    return 0;
}
