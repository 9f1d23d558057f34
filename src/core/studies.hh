/**
 * @file
 * Per-exhibit study drivers: one function per table/figure of the
 * paper's evaluation. Bench binaries print these results; integration
 * tests assert the paper's qualitative claims against them.
 */

#ifndef NVMEXP_CORE_STUDIES_HH
#define NVMEXP_CORE_STUDIES_HH

#include <string>
#include <vector>

#include "core/sweep.hh"
#include "eval/engine.hh"
#include "nvsim/array_model.hh"

namespace nvmexp {
namespace studies {

constexpr double kMiB = 1024.0 * 1024.0;

/** Fig. 3: iso-capacity arrays across cells x optimization targets. */
std::vector<ArrayResult>
arrayLandscape(double capacityBytes = 4.0 * kMiB);

/** Fig. 4: tentpole STT vs the published 1 MB reference array. */
struct ValidationRow
{
    std::string metric;
    double optimistic = 0.0;
    double pessimistic = 0.0;
    double reference = 0.0;
    /** Tentpoles bracket the published value (opt <= ref <= pess). */
    bool covered = false;
};
std::vector<ValidationRow> tentpoleValidation();

/** Fig. 5: 2 MB ReadEDP-optimized arrays (NVDLA buffer). */
std::vector<ArrayResult>
dnnBufferArrays(double capacityBytes = 2.0 * kMiB);

/** Fig. 6 (left): continuous-operation DNN power. */
struct DnnPowerRow
{
    std::string cell;
    std::string scenario;
    double totalPowerW = 0.0;
    double latencyLoad = 0.0;
    double densityMbPerMm2 = 0.0;
    bool meetsFps = false;
    bool meetsAccuracy = false;
};
std::vector<DnnPowerRow> dnnContinuousPower();

/** Fig. 6 (right) + Fig. 7: intermittent energy per inference/day. */
struct IntermittentRow
{
    std::string cell;
    std::string task;       ///< "img-single", "img-multi", "nlp", ...
    double eventsPerDay = 0.0;
    double energyPerEvent = 0.0;
    double energyPerDay = 0.0;
    double capacityBytes = 0.0;
    bool meetsLatency = false;
    bool meetsAccuracy = false;
};
std::vector<IntermittentRow>
dnnIntermittentEnergy(const std::vector<double> &eventsPerDay);

/** Table II: preferred eNVM per use case. */
struct UseCaseRow
{
    std::string useCase;
    std::string task;
    std::string storage;
    std::string priority;
    std::string optChoice;  ///< winner among optimistic cells
    std::string altChoice;  ///< winner among pessimistic + reference
};
std::vector<UseCaseRow> dnnUseCaseSummary();

/** Fig. 8 / Fig. 11: graph scratchpad study. */
struct GraphStudyResult
{
    std::vector<EvalResult> generic;  ///< rate-grid sweep
    std::vector<EvalResult> kernels;  ///< BFS on social graphs
};
GraphStudyResult graphStudy(double capacityBytes = 8.0 * kMiB);

/** Fig. 11: same study with back-gated FeFET added. */
GraphStudyResult bgFefetStudy(double capacityBytes = 8.0 * kMiB);

/** Fig. 10: LLC array characteristics, every study cell x every
 *  optimization target (cell-major). Simulates no traffic. */
std::vector<ArrayResult> llcArrays(double capacityBytes = 16.0 * kMiB);

/** Fig. 9: ReadEDP-optimized LLC arrays under the SPEC-like suite
 *  (20M + 5M instructions per profile), benchmark-major. */
std::vector<EvalResult> llcStudy(double capacityBytes = 16.0 * kMiB);

/** Fig. 12: all enumerated organizations (area-efficiency study). */
std::vector<ArrayResult>
areaEfficiencyStudy(double capacityBytes = 8.0 * kMiB);

/** Fig. 13: SLC vs MLC fault-injection accuracy/density study. */
struct MlcFaultRow
{
    std::string cell;
    int bitsPerCell = 1;
    double cellAreaF2 = 0.0;
    double bitErrorRate = 0.0;
    double accuracy = 0.0;        ///< measured MLP accuracy
    double baselineAccuracy = 0.0;
    double densityMbPerMm2 = 0.0;
    double capacityBytes = 0.0;
    bool fitsWeights = false;     ///< ResNet18 weights fit the array
    bool meetsAccuracy = false;   ///< within 1% of fault-free accuracy
};
std::vector<MlcFaultRow> mlcFaultStudy(int trials = 3);

/** Fig. 14: write-buffer masking / traffic-reduction study. */
struct WriteBufferRow
{
    std::string cell;
    std::string workload;
    double latencyMask = 0.0;
    double trafficReduction = 0.0;
    double totalPowerW = 0.0;
    double latencyLoad = 0.0;
    bool viable = false;
};
std::vector<WriteBufferRow> writeBufferStudy();

} // namespace studies
} // namespace nvmexp

#endif // NVMEXP_CORE_STUDIES_HH
