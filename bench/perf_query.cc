/**
 * @file
 * google-benchmark micro-benchmarks of the refine path
 * (store::applyQuery): constraint filtering (clause-count scaling),
 * 2-D and N-D Pareto extraction, top-k ranking, and the full
 * store-query pipeline.
 *
 * CI runs this with --benchmark_out=BENCH_query.json to seed the perf
 * trajectory of the filter-and-refine stage; the workload is a
 * synthetic-but-deterministic result population so runs are
 * comparable across machines without a characterization sweep.
 */

#include <benchmark/benchmark.h>

#include "store/result_store.hh"
#include "support/bench_fixtures.hh"

using namespace nvmexp;
using benchsupport::syntheticResults;

namespace {

/** One refine stage per benchmark, each through store::applyQuery
 *  (the engine plus the columns its query names). */
void
runQuery(benchmark::State &state, const std::vector<EvalResult> &results,
         const store::StoreQuery &query)
{
    for (auto _ : state) {
        auto refined = store::applyQuery(results, query);
        benchmark::DoNotOptimize(refined);
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() *
                            (std::int64_t)results.size());
}

void
BM_FilterConstraintSet(benchmark::State &state)
{
    // 1, 3, or 6 clauses: clause-count scaling of the refine path.
    store::StoreQuery query;
    const char *clauses[] = {
        "total_power<=0.25",      "latency_load<=1.0",
        "meets_read_bw>=1",       "lifetime_years>=1",
        "read_latency<=50e-9",    "area_mm2<=0.5",
    };
    for (int i = 0; i < state.range(0); ++i)
        query.constraints.add(clauses[i]);
    runQuery(state, syntheticResults(1 << 14), query);
}
BENCHMARK(BM_FilterConstraintSet)->Arg(1)->Arg(3)->Arg(6);

void
BM_Pareto2D(benchmark::State &state)
{
    store::StoreQuery query;
    query.paretoMetrics = {"total_power", "latency_load"};
    runQuery(state, syntheticResults((std::size_t)state.range(0)), query);
}
BENCHMARK(BM_Pareto2D)->Arg(1 << 10)->Arg(1 << 14);

void
BM_Pareto3D(benchmark::State &state)
{
    store::StoreQuery query;
    query.paretoMetrics = {"total_power", "latency_load", "read_latency"};
    runQuery(state, syntheticResults((std::size_t)state.range(0)), query);
}
BENCHMARK(BM_Pareto3D)->Arg(1 << 10)->Arg(1 << 14);

void
BM_TopK(benchmark::State &state)
{
    store::StoreQuery query;
    query.topMetric = "read_edp";
    query.topK = (std::size_t)state.range(0);
    runQuery(state, syntheticResults(1 << 14), query);
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(1 << 12);

void
BM_ApplyQueryPipeline(benchmark::State &state)
{
    store::StoreQuery query;
    query.constraints.add("latency_load<=1.0");
    query.constraints.add("lifetime_years>=1");
    query.paretoMetrics = {"total_power", "read_latency"};
    query.topMetric = "total_power";
    query.topK = 10;
    runQuery(state, syntheticResults((std::size_t)state.range(0)), query);
}
BENCHMARK(BM_ApplyQueryPipeline)->Arg(1 << 10)->Arg(1 << 14);

} // namespace

int
main(int argc, char **argv)
{
    return benchsupport::benchMain(argc, argv);
}
