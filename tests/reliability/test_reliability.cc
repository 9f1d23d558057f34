#include <gtest/gtest.h>

#include <cmath>

#include "../support/fixtures.hh"
#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "fault/ecc.hh"
#include "fault/fault_model.hh"
#include "metrics/metric.hh"
#include "store/serialize.hh"

namespace nvmexp {
namespace {

using reliability::EccScheme;
using reliability::ReliabilityEvaluator;
using reliability::ReliabilitySpec;

class ReliabilityTest : public testsupport::QuietTest
{
};

TEST_F(ReliabilityTest, SchemeRegistryCoversTheVocabulary)
{
    for (const char *name :
         {"none", "secded-72-64", "dec-78-64", "tec-85-64"}) {
        const EccScheme *scheme = reliability::findEccScheme(name);
        ASSERT_NE(scheme, nullptr) << name;
        EXPECT_EQ(scheme->name, name);
        EXPECT_FALSE(scheme->description.empty());
        EXPECT_GE(scheme->codeBits, scheme->dataBits);
        EXPECT_GE(scheme->overhead(), 1.0);
    }
    EXPECT_EQ(reliability::findEccScheme("hamming-weave"), nullptr);
    const EccScheme &secded =
        reliability::requireEccScheme("secded-72-64");
    EXPECT_DOUBLE_EQ(secded.overhead(), 72.0 / 64.0);
    EXPECT_EQ(secded.correctable, 1);
}

TEST_F(ReliabilityTest, UnknownSchemeIsFatalWithContextAndNames)
{
    EXPECT_EXIT(reliability::requireEccScheme("raid-z", "--filter"),
                ::testing::ExitedWithCode(1),
                "--filter.*'raid-z' unknown.*secded-72-64");
    ReliabilitySpec spec;
    spec.ecc = "raid-z";
    EXPECT_EXIT(ReliabilityEvaluator evaluator(spec),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST_F(ReliabilityTest, BadScrubIntervalIsFatal)
{
    ReliabilitySpec spec;
    spec.scrubIntervalSec = -1.0;
    EXPECT_EXIT(ReliabilityEvaluator evaluator(spec),
                ::testing::ExitedWithCode(1), "scrub interval");
    spec.scrubIntervalSec = std::nan("");
    EXPECT_EXIT(ReliabilityEvaluator evaluator(spec),
                ::testing::ExitedWithCode(1), "scrub interval");
}

TEST_F(ReliabilityTest, BinomialTailMatchesBruteForceSums)
{
    // Small exact cases against the directly-expanded CDF complement.
    auto brute = [](int n, int k, double p) {
        auto choose = [](int n_, int k_) {
            double c = 1.0;
            for (int i = 0; i < k_; ++i)
                c = c * (double)(n_ - i) / (double)(i + 1);
            return c;
        };
        double sum = 0.0;
        for (int j = k; j <= n; ++j) {
            sum += choose(n, j) * std::pow(p, j) *
                std::pow(1.0 - p, n - j);
        }
        return sum;
    };
    for (double p : {0.5, 0.1, 1e-3}) {
        for (int k = 1; k <= 5; ++k) {
            EXPECT_NEAR(binomialTailAtLeast(8, k, p), brute(8, k, p),
                        1e-12)
                << "n=8 k=" << k << " p=" << p;
        }
    }
    // Edge cases.
    EXPECT_DOUBLE_EQ(binomialTailAtLeast(72, 0, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(binomialTailAtLeast(72, 73, 0.1), 0.0);
    EXPECT_DOUBLE_EQ(binomialTailAtLeast(72, 2, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomialTailAtLeast(72, 2, 1.0), 1.0);
    // Tiny tails survive (a 1-sum formulation returns 0 or noise
    // below ~1e-16): P(>=2 of 72 at 1e-9) ~ C(72,2) * 1e-18.
    double tiny = binomialTailAtLeast(72, 2, 1e-9);
    EXPECT_NEAR(tiny / (2556.0 * 1e-18), 1.0, 1e-3);
    // Monotone in p and in correction strength.
    EXPECT_LT(binomialTailAtLeast(72, 2, 1e-4),
              binomialTailAtLeast(72, 2, 1e-3));
    EXPECT_LT(binomialTailAtLeast(78, 3, 1e-3),
              binomialTailAtLeast(72, 2, 1e-3));
}

ArrayResult
arrayFor(const MemCell &cell, double capacityBytes = 4.0 * 1024 * 1024)
{
    ArrayConfig config;
    config.capacityBytes = capacityBytes;
    ArrayDesigner designer(cell, config);
    return designer.optimize(OptTarget::ReadEDP);
}

TEST_F(ReliabilityTest, SecDedRescuesMlcRramButNotMlcFefet)
{
    CellCatalog catalog;
    ArrayResult mlcRram =
        arrayFor(catalog.optimistic(CellTech::RRAM).makeMlc());
    ArrayResult mlcFefet =
        arrayFor(catalog.optimistic(CellTech::FeFET).makeMlc());

    ReliabilitySpec none;
    ReliabilitySpec secded;
    secded.ecc = "secded-72-64";
    auto rramNone = ReliabilityEvaluator(none).evaluate(mlcRram);
    auto rramSecded = ReliabilityEvaluator(secded).evaluate(mlcRram);
    auto fefetSecded = ReliabilityEvaluator(secded).evaluate(mlcFefet);

    // The Sec. V-C claim: moderate-BER MLC blows a 1e-2 word budget
    // raw but comes back under it with SEC-DED; small-cell MLC FeFET
    // stays unusable either way.
    EXPECT_GT(rramNone.uncorrectableWordRate, 1e-2);
    EXPECT_LT(rramSecded.uncorrectableWordRate, 1e-2);
    EXPECT_GT(fefetSecded.uncorrectableWordRate, 1e-1);

    // The correction costs density: 72/64 on both capacity and
    // density, none elsewhere.
    EXPECT_DOUBLE_EQ(rramSecded.eccOverhead, 72.0 / 64.0);
    EXPECT_DOUBLE_EQ(rramNone.eccOverhead, 1.0);
    EXPECT_EQ(rramNone.rawBer, rramSecded.rawBer);
}

TEST_F(ReliabilityTest, SramIsFaultFreeAndVolatileCellsDoNotDrift)
{
    ArrayResult sram = arrayFor(CellCatalog::sram16());
    ReliabilitySpec spec;
    spec.scrubIntervalSec = 365.0 * 86400.0;
    auto r = ReliabilityEvaluator(spec).evaluate(sram);
    EXPECT_EQ(r.rawBer, 0.0);
    // SRAM is volatile: no retention drift however long the window.
    EXPECT_EQ(r.scrubbedBer, 0.0);
    EXPECT_EQ(r.uncorrectableWordRate, 0.0);
    EXPECT_EQ(r.uncorrectableImageRate, 0.0);
}

TEST_F(ReliabilityTest, ScrubIntervalMonotonicallyDegradesNvmCells)
{
    CellCatalog catalog;
    ArrayResult array = arrayFor(catalog.optimistic(CellTech::PCM));
    double last = -1.0;
    for (double interval : {0.0, 3600.0, 86400.0, 30.0 * 86400.0}) {
        ReliabilitySpec spec;
        spec.ecc = "secded-72-64";
        spec.scrubIntervalSec = interval;
        auto r = ReliabilityEvaluator(spec).evaluate(array);
        EXPECT_GE(r.scrubbedBer, r.rawBer);
        EXPECT_GT(r.uncorrectableWordRate, last) << interval;
        last = r.uncorrectableWordRate;
        // Image rate upper-bounds the word rate and stays a
        // probability.
        EXPECT_GE(r.uncorrectableImageRate, r.uncorrectableWordRate);
        EXPECT_LE(r.uncorrectableImageRate, 1.0);
    }
}

TEST_F(ReliabilityTest, StrongerCodesTradeDensityForWordRate)
{
    CellCatalog catalog;
    ArrayResult array =
        arrayFor(catalog.optimistic(CellTech::RRAM).makeMlc());
    double lastRate = 2.0;
    double lastOverhead = 0.0;
    for (const char *name :
         {"none", "secded-72-64", "dec-78-64", "tec-85-64"}) {
        ReliabilitySpec spec;
        spec.ecc = name;
        auto r = ReliabilityEvaluator(spec).evaluate(array);
        EXPECT_LT(r.uncorrectableWordRate, lastRate) << name;
        EXPECT_GT(r.eccOverhead, lastOverhead) << name;
        lastRate = r.uncorrectableWordRate;
        lastOverhead = r.eccOverhead;
    }
}

/** The reliability sweep axis: rows expand spec-innermost, metrics
 *  resolve through the registry, and results are identical across
 *  worker counts (the --jobs determinism contract). */
TEST_F(ReliabilityTest, SweepAxisExpandsAndStaysJobCountDeterministic)
{
    SweepConfig config = testsupport::smallSweep();
    ReliabilitySpec none;
    ReliabilitySpec secded;
    secded.ecc = "secded-72-64";
    secded.scrubIntervalSec = 86400.0;
    config.reliability = {none, secded};

    config.jobs = 1;
    auto serial = runSweep(config);
    SweepConfig baseline = testsupport::smallSweep();
    baseline.jobs = 1;
    auto withoutAxis = runSweep(baseline);
    ASSERT_EQ(serial.size(), withoutAxis.size() * 2);

    for (std::size_t i = 0; i < serial.size(); i += 2) {
        EXPECT_EQ(serial[i].reliability.scheme, "none");
        EXPECT_EQ(serial[i + 1].reliability.scheme, "secded-72-64");
        // Spec-innermost: both rows evaluate the same (array,
        // traffic) point, so non-reliability fields agree with the
        // axis-free sweep bit-for-bit.
        EXPECT_TRUE(store::identical(serial[i], withoutAxis[i / 2]));
        EXPECT_EQ(serial[i + 1].totalPower,
                  withoutAxis[i / 2].totalPower);
        // Registry-resolved metrics see the annotation.
        EXPECT_EQ(metrics::metric("ecc_overhead").eval(serial[i]), 1.0);
        EXPECT_DOUBLE_EQ(
            metrics::metric("ecc_overhead").eval(serial[i + 1]),
            72.0 / 64.0);
        EXPECT_DOUBLE_EQ(
            metrics::metric("effective_density_mb_per_mm2")
                .eval(serial[i + 1]),
            serial[i + 1].array->densityMbPerMm2() / (72.0 / 64.0));
    }

    for (int jobs : {2, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        config.jobs = jobs;
        auto parallel = runSweep(config);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(store::identical(serial[i], parallel[i])) << i;
    }
}

TEST_F(ReliabilityTest, DefaultAnnotationMatchesExplicitNoneSpec)
{
    // An empty reliability axis and a spelled-out {"none", 0} spec are
    // the same sweep: identical rows, identical fingerprints.
    SweepConfig bare = testsupport::smallSweep();
    SweepConfig spelled = testsupport::smallSweep();
    spelled.reliability = {ReliabilitySpec{}};
    auto a = runSweep(bare);
    auto b = runSweep(spelled);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(store::identical(a[i], b[i])) << i;
    EXPECT_EQ(store::sweepFingerprint(bare),
              store::sweepFingerprint(spelled));
}

} // namespace
} // namespace nvmexp
