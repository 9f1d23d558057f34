/**
 * @file
 * End-to-end integration: exercise the full NVMExplorer-CPP pipeline
 * the way a user would — survey extension, tentpoles, array search,
 * workload substrates, analytical evaluation, and fault injection —
 * checking cross-module consistency along the way.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cachesim/streams.hh"
#include "celldb/tentpole.hh"
#include "core/sweep.hh"
#include "dnn/inference.hh"
#include "dnn/networks.hh"
#include "fault/injector.hh"
#include "graph/kernels.hh"
#include "store/result_store.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

class EndToEndTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

TEST_F(EndToEndTest, CustomSurveyEntryFlowsToArrayResults)
{
    // A user adds their own published cell...
    SurveyDatabase db;
    SurveyEntry entry;
    entry.label = "user-RRAM-2026";
    entry.tech = CellTech::RRAM;
    entry.nodeNm = 22;
    entry.areaF2 = 12.0;  // denser than every built-in RRAM
    entry.writePulseNs = 8.0;
    entry.endurance = 1e9;
    db.addEntry(entry);

    // ...and the tentpole machinery picks it up as the new optimist.
    TentpoleBuilder builder(db);
    MemCell opt = builder.optimistic(CellTech::RRAM);
    EXPECT_DOUBLE_EQ(opt.areaF2, 12.0);
    EXPECT_DOUBLE_EQ(opt.setPulse, 8e-9);

    ArrayConfig config;
    config.capacityBytes = 4.0 * 1024 * 1024;
    ArrayDesigner designer(opt, config);
    ArrayResult array = designer.optimize(OptTarget::ReadEDP);
    EXPECT_GT(array.densityMbPerMm2(), 0.0);
}

TEST_F(EndToEndTest, DnnTrafficThroughSweepAndFilters)
{
    DnnScenario scenario;
    scenario.network = resnet26();
    scenario.framesPerSec = 60.0;

    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = catalog.studyCells();
    sweep.capacitiesBytes = {2.0 * 1024 * 1024};
    sweep.traffics = {dnnTraffic(scenario)};
    auto results = runSweep(sweep);
    ASSERT_EQ(results.size(), 12u);

    // Cells that keep up with the traffic...
    store::StoreQuery keepsUp;
    keepsUp.constraints.add("latency_load<=1.0");
    keepsUp.constraints.add("meets_read_bw>=1");
    keepsUp.constraints.add("meets_write_bw>=1");
    auto viable = store::applyQuery(results, keepsUp);
    EXPECT_GE(viable.size(), 8u);  // most cells sustain weights@60FPS

    // ...and the named-metric best matches the hand-written minimum.
    auto lowest = std::min_element(
        viable.begin(), viable.end(),
        [](const EvalResult &l, const EvalResult &r) {
            return l.totalPower < r.totalPower;
        });
    ASSERT_NE(lowest, viable.end());
    EXPECT_NE(lowest->array->cell.name, "SRAM");
    store::StoreQuery best;
    best.topMetric = "total_power";
    best.topK = 1;
    auto top = store::applyQuery(viable, best);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_TRUE(store::identical(top[0], *lowest));
}

TEST_F(EndToEndTest, GraphKernelToLifetimeProjection)
{
    Graph g = facebookLike();
    BfsResult r = bfs(g, 0);
    GraphAccelModel accel;
    TrafficPattern traffic = kernelTraffic("bfs", r.stats, accel);

    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 8.0 * 1024 * 1024;
    config.wordBits = accel.scratchWordBits;
    ArrayDesigner designer(catalog.optimistic(CellTech::RRAM), config);
    ArrayResult array = designer.optimize(OptTarget::ReadEDP);
    EvalResult ev = evaluate(array, traffic);
    // RRAM under sustained BFS writes wears out in well under the
    // 10-year deployment bar.
    EXPECT_LT(ev.lifetimeYears(), 10.0);
    EXPECT_GT(ev.lifetimeYears(), 0.0);
}

TEST_F(EndToEndTest, CacheSimFeedsLlcEvaluation)
{
    Hierarchy::Config hconfig;
    LlcTraffic llc = runBenchmark(profileByName("mcf"), 1'000'000,
                                  200'000, hconfig);
    TrafficPattern traffic = llcTrafficPattern(llc);

    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 16.0 * 1024 * 1024;
    ArrayDesigner designer(catalog.optimistic(CellTech::STT), config);
    EvalResult ev = evaluate(designer.optimize(OptTarget::ReadEDP),
                             traffic);
    EXPECT_TRUE(ev.viable());
    EXPECT_GT(ev.dynamicPower, 0.0);
}

TEST_F(EndToEndTest, FaultPipelineMatchesModelRates)
{
    CellCatalog catalog;
    MemCell mlc = catalog.optimistic(CellTech::FeFET).makeMlc();
    FaultModel model(mlc);

    SyntheticTask task(16, 4, 800, 400, 3);
    Mlp mlp({16, 32, 4}, 4);
    mlp.train(task, 8, 0.03);
    QuantizedMlp q = mlp.quantize();
    double clean = q.accuracy(task.testX(), task.testY());

    FaultInjector injector(model, 5);
    std::size_t flips = injector.inject(q.weightImage());
    double corrupted = q.accuracy(task.testX(), task.testY());
    EXPECT_GT(flips, 0u);
    EXPECT_LE(corrupted, clean);
}

TEST_F(EndToEndTest, EvaluateIsDeterministic)
{
    CellCatalog catalog;
    ArrayConfig config;
    config.capacityBytes = 2.0 * 1024 * 1024;
    ArrayDesigner designer(catalog.optimistic(CellTech::PCM), config);
    ArrayResult a = designer.optimize(OptTarget::WriteEDP);
    ArrayResult b = designer.optimize(OptTarget::WriteEDP);
    EXPECT_DOUBLE_EQ(a.readLatency, b.readLatency);
    EXPECT_DOUBLE_EQ(a.writeEnergy, b.writeEnergy);
    EXPECT_EQ(a.org.banks, b.org.banks);
    EXPECT_EQ(a.org.subarray.rows, b.org.subarray.rows);
}

} // namespace
} // namespace nvmexp
