/**
 * @file
 * The paper's headline qualitative claims, asserted against the
 * reproduction. Each test names the exhibit it guards. These are the
 * "shape" checks EXPERIMENTS.md reports on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/studies.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace {

class PaperClaimsTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    static std::map<std::string, ArrayResult>
    arraysByName(const std::vector<ArrayResult> &arrays)
    {
        std::map<std::string, ArrayResult> out;
        for (const auto &array : arrays)
            out.emplace(array.cell.name, array);
        return out;
    }

    /** The Fig. 9 LLC study, simulated once for the whole suite: it
     *  is deterministic and by far the suite's most expensive input. */
    static const std::vector<EvalResult> &
    llcStudy()
    {
        static const std::vector<EvalResult> study = studies::llcStudy();
        return study;
    }
};

TEST_F(PaperClaimsTest, Fig3_WriteCharacteristicsSpanDecades)
{
    auto arrays = arraysByName(studies::dnnBufferArrays(4 << 20));
    double fastest = 1e9, slowest = 0.0;
    for (const auto &[name, array] : arrays) {
        if (name == "SRAM")
            continue;
        fastest = std::min(fastest, array.writeLatency);
        slowest = std::max(slowest, array.writeLatency);
    }
    EXPECT_GT(slowest / fastest, 1e3);
}

TEST_F(PaperClaimsTest, Fig5_ReadEnergyTiers)
{
    auto arrays = arraysByName(studies::dnnBufferArrays());
    double sram = arrays.at("SRAM").readEnergy;
    // Tier 1: STT, PCM, RRAM below SRAM.
    EXPECT_LT(arrays.at("STT-Opt").readEnergy, sram);
    EXPECT_LT(arrays.at("PCM-Opt").readEnergy, sram);
    EXPECT_LT(arrays.at("RRAM-Opt").readEnergy, sram);
    // Tier 2: FeFET-based cells above SRAM.
    EXPECT_GT(arrays.at("FeFET-Opt").readEnergy, sram);
    EXPECT_GT(arrays.at("FeFET-Pess").readEnergy, sram);
}

TEST_F(PaperClaimsTest, Fig5_PessimisticPcmIsTheReadLatencyOutlier)
{
    auto arrays = arraysByName(studies::dnnBufferArrays());
    double pcmPess = arrays.at("PCM-Pess").readLatency;
    for (const auto &[name, array] : arrays) {
        if (name != "PCM-Pess") {
            EXPECT_LT(array.readLatency, pcmPess) << name;
        }
    }
}

TEST_F(PaperClaimsTest, Fig5_DensityHeadlines)
{
    auto arrays = arraysByName(studies::dnnBufferArrays());
    double sram = arrays.at("SRAM").densityMbPerMm2();
    double stt = arrays.at("STT-Opt").densityMbPerMm2();
    double fefet = arrays.at("FeFET-Opt").densityMbPerMm2();
    // "optimistic STT offers ~6x higher density over SRAM"
    EXPECT_GT(stt / sram, 4.0);
    EXPECT_LT(stt / sram, 9.0);
    // "optimistic FeFET offers the highest storage density"
    for (const auto &[name, array] : arrays)
        EXPECT_LE(array.densityMbPerMm2(), fefet) << name;
}

TEST_F(PaperClaimsTest, Fig6_EnvmsBeatSramPowerByOver4x)
{
    double sram = 0.0;
    std::map<std::string, double> power;
    for (const auto &row : studies::dnnContinuousPower()) {
        if (row.scenario != "single/weights")
            continue;
        if (row.cell == "SRAM")
            sram = row.totalPowerW;
        else
            power[row.cell] = row.totalPowerW;
    }
    ASSERT_GT(sram, 0.0);
    for (const char *cell : {"PCM-Opt", "RRAM-Opt", "STT-Opt"})
        EXPECT_GT(sram / power.at(cell), 4.0) << cell;
}

TEST_F(PaperClaimsTest, Fig6_HighTrafficFavorsSttOverFefet)
{
    // Under the heaviest continuous scenario (multi-task with
    // activations) FeFET's expensive reads cost it the power crown;
    // STT is the efficient high-traffic option, as in the paper.
    std::map<std::string, double> power;
    for (const auto &row : studies::dnnContinuousPower())
        if (row.scenario == "multi/w+a")
            power[row.cell] = row.totalPowerW;
    EXPECT_GT(power.at("FeFET-Opt"), power.at("STT-Opt"));
}

TEST_F(PaperClaimsTest, Fig6_WriteHeavyScenarioExcludesSlowCells)
{
    int excluded = 0;
    for (const auto &row : studies::dnnContinuousPower()) {
        if (row.scenario != "multi/w+a")
            continue;
        if (row.cell == "CTT-Opt" || row.cell == "CTT-Pess" ||
            row.cell == "PCM-Pess" || row.cell == "RRAM-Pess") {
            EXPECT_FALSE(row.meetsFps) << row.cell;
            ++excluded;
        }
        if (row.cell == "STT-Opt") {
            EXPECT_TRUE(row.meetsFps);
        }
    }
    EXPECT_EQ(excluded, 4);
}

TEST_F(PaperClaimsTest, Fig7_FefetToSttCrossover)
{
    std::vector<double> rates = {1e2, 1e3, 1e4, 1e5, 1e6, 1e7};
    auto rows = studies::dnnIntermittentEnergy(rates);
    auto energyAt = [&](const std::string &cell, double rate,
                        const std::string &task) {
        for (const auto &row : rows)
            if (row.cell == cell && row.eventsPerDay == rate &&
                row.task == task)
                return row.energyPerDay;
        ADD_FAILURE() << "missing row";
        return 0.0;
    };
    // Image classification: FeFET wins at low rates, STT at high.
    EXPECT_LT(energyAt("FeFET-Opt", 1e2, "img-single"),
              energyAt("STT-Opt", 1e2, "img-single"));
    EXPECT_LT(energyAt("STT-Opt", 1e7, "img-single"),
              energyAt("FeFET-Opt", 1e7, "img-single"));

    // The crossover happens at a LOWER rate for ALBERT than for
    // ResNet26 (more accesses per inference).
    auto crossover = [&](const std::string &task) {
        for (double rate : rates)
            if (energyAt("STT-Opt", rate, task) <
                energyAt("FeFET-Opt", rate, task))
                return rate;
        return 1e99;
    };
    EXPECT_LT(crossover("nlp-single"), crossover("img-single"));
}

TEST_F(PaperClaimsTest, Fig8_GraphHeadlines)
{
    auto study = studies::graphStudy();
    // STT offers the best projected lifetime and RRAM the worst among
    // viable optimistic eNVMs (kernel points).
    std::map<std::string, double> lifetime;
    std::map<std::string, double> power;
    for (const auto &ev : study.kernels) {
        if (ev.traffic->name != "Wikipedia-BFS")
            continue;
        lifetime[ev.array->cell.name] = ev.lifetimeSec;
        power[ev.array->cell.name] = ev.totalPower;
    }
    EXPECT_GT(lifetime.at("STT-Opt"), lifetime.at("PCM-Opt"));
    EXPECT_GT(lifetime.at("PCM-Opt"), lifetime.at("RRAM-Opt"));
    // eNVMs deliver the paper's ~2-10x power win over SRAM.
    EXPECT_GT(power.at("SRAM") / power.at("STT-Opt"), 2.0);
    // Pessimistic FeFET cannot keep up with the write traffic.
    for (const auto &ev : study.kernels) {
        if (ev.array->cell.name == "FeFET-Pess") {
            EXPECT_FALSE(ev.viable());
        }
    }
}

TEST_F(PaperClaimsTest, Fig8_LowReadRatePowerWinnerIsFeFet)
{
    auto study = studies::graphStudy();
    // At the lowest generic read rate, optimistic FeFET is the lowest
    // power eNVM; at the highest rate optimistic STT wins.
    double loRate = 1e99, hiRate = 0.0;
    for (const auto &ev : study.generic) {
        loRate = std::min(loRate, ev.traffic->readsPerSec);
        hiRate = std::max(hiRate, ev.traffic->readsPerSec);
    }
    std::map<std::string, double> lo, hi;
    for (const auto &ev : study.generic) {
        if (ev.traffic->readsPerSec == loRate)
            lo.try_emplace(ev.array->cell.name, ev.totalPower);
        if (ev.traffic->readsPerSec == hiRate)
            hi.try_emplace(ev.array->cell.name, ev.totalPower);
    }
    EXPECT_LT(lo.at("FeFET-Opt"), lo.at("STT-Opt"));
    EXPECT_LT(lo.at("FeFET-Opt"), lo.at("PCM-Opt"));
    EXPECT_LT(hi.at("STT-Opt"), hi.at("FeFET-Opt"));
}

TEST_F(PaperClaimsTest, Fig9_SttWinsHighTrafficLlc)
{
    const auto &study = llcStudy();
    // For the highest-traffic benchmark, STT provides the lowest
    // power, lowest latency load, and longest lifetime among eNVMs.
    const EvalResult *heaviest = nullptr;
    for (const auto &ev : study)
        if (!heaviest ||
            ev.traffic->readsPerSec > heaviest->traffic->readsPerSec)
            heaviest = &ev;
    ASSERT_NE(heaviest, nullptr);
    std::string heavyBench = heaviest->traffic->name;
    std::map<std::string, const EvalResult *> at;
    for (const auto &ev : study)
        if (ev.traffic->name == heavyBench)
            at[ev.array->cell.name] = &ev;
    for (const char *cell : {"PCM-Opt", "RRAM-Opt", "FeFET-Opt"}) {
        EXPECT_LE(at.at("STT-Opt")->totalPower,
                  at.at(cell)->totalPower) << cell;
        EXPECT_LE(at.at("STT-Opt")->latencyLoad,
                  at.at(cell)->latencyLoad) << cell;
        EXPECT_GE(at.at("STT-Opt")->lifetimeSec,
                  at.at(cell)->lifetimeSec) << cell;
    }
}

TEST_F(PaperClaimsTest, Fig9_RramNotViableAsLlcLongTerm)
{
    const auto &study = llcStudy();
    // "RRAM does not appear viable as an LLC": lifetime under a year
    // for every benchmark with meaningful write traffic.
    int checked = 0;
    for (const auto &ev : study) {
        if (ev.array->cell.name != "RRAM-Opt")
            continue;
        if (ev.traffic->writesPerSec < 1e6)
            continue;  // near-idle benchmarks wear nothing
        EXPECT_LT(ev.lifetimeYears(), 1.0) << ev.traffic->name;
        ++checked;
    }
    EXPECT_GE(checked, 5);
}

TEST_F(PaperClaimsTest, Fig11_BackGatedFefetClosesThePerformanceGap)
{
    auto study = studies::bgFefetStudy();
    double bgWorst = 0.0, pessWorst = 0.0, sramWorst = 0.0;
    for (const auto &ev : study.generic) {
        double load = ev.latencyLoad;
        if (ev.array->cell.name == "FeFET-BG")
            bgWorst = std::max(bgWorst, load);
        if (ev.array->cell.name == "FeFET-Pess")
            pessWorst = std::max(pessWorst, load);
        if (ev.array->cell.name == "SRAM")
            sramWorst = std::max(sramWorst, load);
    }
    // BG-FeFET holds SRAM-comparable latency loads where prior FeFETs
    // fall far behind.
    EXPECT_LT(bgWorst, pessWorst / 5.0);
    EXPECT_LT(bgWorst, 10.0 * sramWorst);

    // BG-FeFET is the best FeFET on the Wikipedia BFS kernel point
    // and the lowest-power cell overall at the low end of the read
    // range (the leakage-dominated regime its density wins).
    std::map<std::string, double> kernelPower;
    for (const auto &ev : study.kernels)
        if (ev.traffic->name == "Wikipedia-BFS")
            kernelPower[ev.array->cell.name] = ev.totalPower;
    EXPECT_LT(kernelPower.at("FeFET-BG"),
              kernelPower.at("FeFET-Pess"));
    EXPECT_LT(kernelPower.at("FeFET-BG"),
              kernelPower.at("SRAM"));

    double loRate = 1e99;
    for (const auto &ev : study.generic)
        loRate = std::min(loRate, ev.traffic->readsPerSec);
    std::map<std::string, double> lo;
    for (const auto &ev : study.generic)
        if (ev.traffic->readsPerSec == loRate)
            lo.try_emplace(ev.array->cell.name, ev.totalPower);
    for (const auto &[name, power] : lo) {
        if (name != "FeFET-BG" && name != "FeFET-Opt") {
            EXPECT_LE(lo.at("FeFET-BG"), power) << name;
        }
    }
}

TEST_F(PaperClaimsTest, Fig13_MlcReliabilityIsTechnologySpecific)
{
    auto rows = studies::mlcFaultStudy(2);
    bool sawRramMlc = false, sawSmallFefetMlc = false,
         sawLargeFefetMlc = false;
    for (const auto &row : rows) {
        if (row.bitsPerCell != 2)
            continue;
        if (row.cell.find("RRAM") != std::string::npos) {
            EXPECT_TRUE(row.meetsAccuracy) << row.cell;
            sawRramMlc = true;
        }
        if (row.cell == "FeFET-Opt-MLC2") {  // 4 F^2: too variable
            EXPECT_FALSE(row.meetsAccuracy);
            sawSmallFefetMlc = true;
        }
        if (row.cell == "FeFET-Pess-MLC2") {  // 103 F^2: acceptable
            EXPECT_TRUE(row.meetsAccuracy);
            sawLargeFefetMlc = true;
        }
    }
    EXPECT_TRUE(sawRramMlc);
    EXPECT_TRUE(sawSmallFefetMlc);
    EXPECT_TRUE(sawLargeFefetMlc);
}

TEST_F(PaperClaimsTest, Fig13_MlcDoublesDensity)
{
    auto rows = studies::mlcFaultStudy(1);
    std::map<std::string, double> density;
    for (const auto &row : rows)
        if (row.capacityBytes > 9e6)
            density[row.cell] = row.densityMbPerMm2;
    EXPECT_GT(density.at("RRAM-Opt-MLC2"), 1.5 * density.at("RRAM-Opt"));
}

TEST_F(PaperClaimsTest, Fig14_WriteBufferingBroadensViability)
{
    auto rows = studies::writeBufferStudy();
    // STT remains the lowest-power viable option for Facebook-BFS
    // even without buffering; FeFET's latency load collapses once
    // writes are masked.
    double sttPlain = -1.0, fefetPlain = -1.0, fefetMasked = -1.0;
    for (const auto &row : rows) {
        if (row.workload != "Facebook-BFS")
            continue;
        if (row.latencyMask == 0.0 && row.trafficReduction == 0.0) {
            if (row.cell == "STT-Opt")
                sttPlain = row.totalPowerW;
            if (row.cell == "FeFET-Opt")
                fefetPlain = row.latencyLoad;
        }
        if (row.cell == "FeFET-Opt" && row.latencyMask == 1.0 &&
            row.trafficReduction == 0.5) {
            fefetMasked = row.latencyLoad;
        }
    }
    ASSERT_GT(sttPlain, 0.0);
    EXPECT_LT(fefetMasked, fefetPlain / 4.0);
    for (const auto &row : rows) {
        if (row.workload == "Facebook-BFS" && row.latencyMask == 0.0 &&
            row.trafficReduction == 0.0 && row.cell != "SRAM") {
            EXPECT_GE(row.totalPowerW, sttPlain) << row.cell;
        }
    }
}

} // namespace
} // namespace nvmexp
