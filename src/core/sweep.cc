#include "core/sweep.hh"

#include "core/parallel_sweep.hh"

namespace nvmexp {

std::vector<ArrayResult>
characterizeSweep(const SweepConfig &config)
{
    return ParallelSweepRunner(config.jobs).characterize(config);
}

std::vector<EvalResult>
runSweep(const SweepConfig &config)
{
    return ParallelSweepRunner(config.jobs).run(config);
}

} // namespace nvmexp
