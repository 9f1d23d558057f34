/**
 * @file
 * google-benchmark coverage of sweep campaigns: the full plan -> run
 * -> merge lifecycle over the campaign-sized sweep (1536 store-backed
 * slots) in one process, plus the merge step in isolation.
 *
 * Both rows time wall clock (UseRealTime): the shard work is mostly
 * journal writes and the merge's artifact writes, so time spent in the
 * file system counts. CI appends this binary's JSON to perf_sweep's and
 * gates the merged file against the committed BENCH_sweep.json
 * snapshot.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "campaign/campaign.hh"
#include "core/parallel_sweep.hh"
#include "support/bench_fixtures.hh"

using namespace nvmexp;

namespace {

std::string
campaignDir(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("nvmexp_perf_campaign_" + name)).string();
}

/** Plan `shards` shards of `config` into `dir` and run each in this
 *  process, one job apiece. */
void
planAndRun(const std::string &dir, const SweepConfig &config,
           std::size_t shards)
{
    campaign::planCampaign(dir, config, shards);
    ParallelSweepRunner runner(1);
    for (std::size_t k = 0; k < shards; ++k)
        campaign::runShard(dir, config, k, runner);
}

/** Full campaign lifecycle at Arg(0) shards: plan, run every shard
 *  in-process, merge. Fresh directory every iteration — this measures
 *  cold end-to-end wall clock, merge included. */
void
BM_CampaignRun(benchmark::State &state)
{
    std::size_t shards = (std::size_t)state.range(0);
    SweepConfig config = benchsupport::campaignSweep();
    std::string dir =
        campaignDir("run" + std::to_string(shards));
    for (auto _ : state) {
        state.PauseTiming();
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
        planAndRun(dir, config, shards);
        auto summary = campaign::mergeCampaign(dir);
        benchmark::DoNotOptimize(summary);
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CampaignRun)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The merge step alone over a completed 4-shard campaign: the serial
 *  tail every campaign pays. One scan decodes each shard journal line
 *  once; the raw lines become the merged journal and the decoded rows
 *  go through the store's one results writer. */
void
BM_CampaignMerge(benchmark::State &state)
{
    SweepConfig config = benchsupport::campaignSweep();
    std::string dir = campaignDir("merge");
    std::filesystem::remove_all(dir);
    planAndRun(dir, config, 4);
    for (auto _ : state) {
        auto summary = campaign::mergeCampaign(dir);
        benchmark::DoNotOptimize(summary);
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CampaignMerge)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    return benchsupport::benchMain(argc, argv);
}
