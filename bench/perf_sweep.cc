/**
 * @file
 * google-benchmark coverage of the sweep inner loop: the batched
 * structure-of-arrays evaluation path (eval/batch.hh) across worker
 * counts, with and without a reliability axis, against a
 * single-threaded per-point reference loop over the same kernels, and
 * the full store-backed run() cold vs warm.
 *
 * CI runs this with --benchmark_out=BENCH_sweep.json and diffs the
 * result against the committed snapshot (tools/bench_gate.py). The
 * gate compares ratios *within* one file — every benchmark normalized
 * by BM_SweepEvalScalar/1 — so the committed numbers stay meaningful
 * across machines; it also asserts the batched path's headline >= 2x
 * speedup over the per-point loop on the wide sweep.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>

#include "core/parallel_sweep.hh"
#include "reliability/reliability.hh"
#include "store/result_store.hh"
#include "support/bench_fixtures.hh"

using namespace nvmexp;

namespace {

/** The wide sweep's 16 characterized arrays, computed once: the
 *  benchmarks isolate the evaluation stage, not characterization. */
const std::vector<ArrayResult> &
benchArrays()
{
    static const std::vector<ArrayResult> arrays = [] {
        ParallelSweepRunner runner(0);
        return runner.characterize(benchsupport::wideSweep(false));
    }();
    return arrays;
}

/** One runner per worker count, reused across iterations so the
 *  persistent pool's creation cost isn't measured. */
ParallelSweepRunner &
runnerFor(int jobs)
{
    static ParallelSweepRunner runners[] = {
        ParallelSweepRunner(1), ParallelSweepRunner(4),
        ParallelSweepRunner(8)};
    return runners[jobs == 1 ? 0 : jobs == 4 ? 1 : 2];
}

/**
 * The per-point reference the batched path is measured against: every
 * expanded slot (spec innermost) pays its own base and reliability
 * evaluation, on one thread, into a pre-sized result vector — the
 * same work the committed BENCH_sweep.json reference row timed, so
 * its normalized ratios stay comparable. The rows share one handle
 * per array and per traffic, built before the slot loop as the sweep
 * builds them, so the loop times evaluation rather than two copies
 * per point. An empty spec list means the implicit default spec, as
 * in the sweep engine.
 */
std::vector<EvalResult>
evaluatePerPoint(const std::vector<ArrayResult> &arrays,
                 const std::vector<TrafficPattern> &traffics,
                 std::vector<reliability::ReliabilitySpec> specs)
{
    if (specs.empty())
        specs.emplace_back();
    std::vector<reliability::ReliabilityEvaluator> evaluators(
        specs.begin(), specs.end());
    std::vector<std::shared_ptr<const ArrayResult>> arrayHandles;
    for (const auto &array : arrays)
        arrayHandles.push_back(std::make_shared<const ArrayResult>(array));
    std::vector<std::shared_ptr<const TrafficPattern>> trafficHandles;
    for (const auto &traffic : traffics) {
        trafficHandles.push_back(
            std::make_shared<const TrafficPattern>(traffic));
    }
    const std::size_t nspecs = evaluators.size();
    std::vector<EvalResult> results(arrays.size() * traffics.size() *
                                    nspecs);
    for (std::size_t idx = 0; idx < results.size(); ++idx) {
        const auto &array = arrayHandles[idx / (traffics.size() * nspecs)];
        results[idx] = evaluate(
            array, trafficHandles[(idx / nspecs) % traffics.size()]);
        results[idx].reliability =
            evaluators[idx % nspecs].evaluate(*array);
    }
    return results;
}

/** Per-point reference, reliability axis on (384 slots). The
 *  regression gate's normalization reference at Arg(1), the only
 *  worker count it runs at. */
void
BM_SweepEvalScalar(benchmark::State &state)
{
    const auto &arrays = benchArrays();
    SweepConfig config = benchsupport::wideSweep(true);
    for (auto _ : state) {
        auto results = evaluatePerPoint(arrays, config.traffics,
                                        config.reliability);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(
        (std::int64_t)state.iterations() *
        (std::int64_t)(arrays.size() * config.traffics.size() *
                       config.reliability.size()));
}
BENCHMARK(BM_SweepEvalScalar)->Arg(1);

/** Batched path over the same 384 slots: base evaluation hoisted per
 *  (array, traffic) run, reliability per (array, spec) entry. */
void
BM_SweepEvalBatched(benchmark::State &state)
{
    const auto &arrays = benchArrays();
    SweepConfig config = benchsupport::wideSweep(true);
    ParallelSweepRunner &runner = runnerFor((int)state.range(0));
    for (auto _ : state) {
        auto results = runner.evaluateAll(arrays, config.traffics,
                                          config.reliability);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(
        (std::int64_t)state.iterations() *
        (std::int64_t)(arrays.size() * config.traffics.size() *
                       config.reliability.size()));
}
BENCHMARK(BM_SweepEvalBatched)->Arg(1)->Arg(4)->Arg(8);

/** No reliability axis (96 slots, implicit default spec): the hoist
 *  only amortizes the per-point FaultModel, so the gap between these
 *  two is the floor of the batched win. */
void
BM_SweepEvalScalarNoRel(benchmark::State &state)
{
    const auto &arrays = benchArrays();
    SweepConfig config = benchsupport::wideSweep(false);
    for (auto _ : state) {
        auto results = evaluatePerPoint(arrays, config.traffics,
                                        config.reliability);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(
        (std::int64_t)state.iterations() *
        (std::int64_t)(arrays.size() * config.traffics.size()));
}
BENCHMARK(BM_SweepEvalScalarNoRel)->Arg(1);

void
BM_SweepEvalBatchedNoRel(benchmark::State &state)
{
    const auto &arrays = benchArrays();
    SweepConfig config = benchsupport::wideSweep(false);
    ParallelSweepRunner &runner = runnerFor((int)state.range(0));
    for (auto _ : state) {
        auto results = runner.evaluateAll(arrays, config.traffics,
                                          config.reliability);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(
        (std::int64_t)state.iterations() *
        (std::int64_t)(arrays.size() * config.traffics.size()));
}
BENCHMARK(BM_SweepEvalBatchedNoRel)->Arg(1);

/** Full store-backed run() from an empty store: design-space
 *  enumeration + batched evaluation + artifact writes. */
void
BM_SweepRunColdStore(benchmark::State &state)
{
    SweepConfig config = benchsupport::wideSweep(true);
    config.jobs = 4;
    std::string dir = (std::filesystem::temp_directory_path() /
                       "nvmexp_perf_sweep_cold").string();
    config.outDir = dir;
    ParallelSweepRunner &runner = runnerFor(config.jobs);
    for (auto _ : state) {
        state.PauseTiming();
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
        auto results = runner.run(config);
        benchmark::DoNotOptimize(results);
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SweepRunColdStore);

/** The same run() against a fully warm characterization cache: what a
 *  re-run or figure regeneration pays. */
void
BM_SweepRunWarmStore(benchmark::State &state)
{
    SweepConfig config = benchsupport::wideSweep(true);
    config.jobs = 4;
    std::string dir = (std::filesystem::temp_directory_path() /
                       "nvmexp_perf_sweep_warm").string();
    std::filesystem::remove_all(dir);
    config.outDir = dir;
    ParallelSweepRunner &runner = runnerFor(config.jobs);
    auto warmup = runner.run(config);
    benchmark::DoNotOptimize(warmup);
    for (auto _ : state) {
        auto results = runner.run(config);
        benchmark::DoNotOptimize(results);
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SweepRunWarmStore);

} // namespace

int
main(int argc, char **argv)
{
    return benchsupport::benchMain(argc, argv);
}
