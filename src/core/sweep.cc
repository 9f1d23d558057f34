#include "core/sweep.hh"

#include <cmath>
#include <limits>

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

const EvalResult *
bestBy(const std::vector<EvalResult> &results,
       const std::function<double(const EvalResult &)> &key)
{
    const EvalResult *best = nullptr;
    double bestKey = std::numeric_limits<double>::infinity();
    for (const auto &result : results) {
        double k = key(result);
        if (std::isnan(k))
            continue;
        if (!best || k < bestKey) {
            best = &result;
            bestKey = k;
        }
    }
    return best;
}

} // namespace nvmexp
