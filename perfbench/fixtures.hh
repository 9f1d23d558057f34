/**
 * @file
 * The sweeps the workloads run, generated from the run's seed. The
 * seed perturbs traffic rates only, never sizes, so every seed does
 * the same amount of work.
 */

#ifndef NVMEXP_PERFBENCH_FIXTURES_HH
#define NVMEXP_PERFBENCH_FIXTURES_HH

#include "bench.hh"
#include "core/sweep.hh"

namespace perfbench {

/**
 * The campaign-sized sweep of bench/support/bench_fixtures.hh: 4 cells
 * x 2 capacities x 2 targets x 6 traffics x 16 reliability specs (1536
 * slots). Redefined here because that header needs google-benchmark;
 * the traffic rates are scaled by seeded factors in [0.5, 1.5).
 */
nvmexp::SweepConfig storeSweep(const Options &options);

/**
 * The model-only sweep: 12 study cells x 6 capacities (1-32 MiB) x all
 * 8 optimization targets (576 arrays) x 16 traffics from workload
 * plugin specs x 16 reliability specs (147,456 slots), no store.
 */
nvmexp::SweepConfig modelSweep(const Options &options);

} // namespace perfbench

#endif // NVMEXP_PERFBENCH_FIXTURES_HH
