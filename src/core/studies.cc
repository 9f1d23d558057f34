#include "core/studies.hh"

#include <algorithm>
#include <cmath>

#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "dnn/inference.hh"
#include "dnn/networks.hh"
#include "fault/fault_model.hh"
#include "fault/injector.hh"
#include "metrics/metric.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace studies {

namespace {

/**
 * Bit-error-rate ceiling for "maintains DNN accuracy" filters in the
 * power studies. Calibrated against the real fault-injection MLP
 * experiments (mlcFaultStudy): accuracy stays within 1% of baseline
 * below ~2e-3 and collapses above ~1e-2.
 */
constexpr double kAccuracyBerCeiling = 2e-3;

/** Studies run on every hardware thread and without a store: their
 *  results do not depend on the worker count. */
constexpr int kStudyJobs = 0;

ArrayResult
optimizeFor(const MemCell &cell, double capacityBytes, int wordBits,
            OptTarget target)
{
    ArrayConfig config;
    config.capacityBytes = capacityBytes;
    config.wordBits = wordBits;
    config.nodeNm = implementationNode(cell);
    ArrayDesigner designer(cell, config);
    return designer.optimize(target);
}

bool
accuracyOk(const MemCell &cell)
{
    return FaultModel(cell).bitErrorRate() < kAccuracyBerCeiling;
}

/** Round a byte footprint up to the next power-of-two MiB capacity. */
double
provisionCapacity(double footprintBytes)
{
    double capacity = kMiB;
    while (capacity < footprintBytes)
        capacity *= 2.0;
    return capacity;
}

/** Registry dispatch for the studies: a JSON workload spec (the same
 *  syntax config files use) expanded at the study's word width, its
 *  parts on every hardware thread. */
std::vector<TrafficPattern>
workloadTraffic(const std::string &specJson, int wordBits)
{
    workload::TrafficContext context;
    context.wordBits = wordBits;
    return workload::expandWorkloads({JsonValue::parse(specJson)},
                                     context, kStudyJobs);
}

/** Single-pattern convenience for scenario-shaped studies. */
TrafficPattern
workloadPattern(const std::string &specJson, int wordBits)
{
    auto patterns = workloadTraffic(specJson, wordBits);
    if (patterns.size() != 1)
        panic("study workload spec produced ", patterns.size(),
              " patterns, expected one: ", specJson);
    return patterns.front();
}

} // namespace

std::vector<ArrayResult>
arrayLandscape(double capacityBytes)
{
    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = catalog.studyCells();
    sweep.capacitiesBytes = {capacityBytes};
    sweep.targets = allOptTargets();
    sweep.jobs = kStudyJobs;
    return characterizeSweep(sweep);
}

std::vector<ValidationRow>
tentpoleValidation()
{
    CellCatalog catalog;
    const SurveyEntry *published = nullptr;
    for (const auto &entry : catalog.survey().entries()) {
        if (entry.label == "ISSCC18-STT-1Mb-2p8ns") {
            published = &entry;
            break;
        }
    }
    if (!published)
        panic("validation reference entry missing from survey");

    double capacity = *published->arrayCapacityMb * kMiB / 8.0;
    ArrayResult opt = optimizeFor(catalog.optimistic(CellTech::STT),
                                  capacity, 512, OptTarget::ReadLatency);
    ArrayResult pess = optimizeFor(catalog.pessimistic(CellTech::STT),
                                   capacity, 512, OptTarget::ReadLatency);

    std::vector<ValidationRow> rows;
    {
        ValidationRow r;
        r.metric = "read latency [ns]";
        r.optimistic = opt.readLatency * 1e9;
        r.pessimistic = pess.readLatency * 1e9;
        r.reference = *published->arrayReadLatencyNs;
        r.covered = r.optimistic <= r.reference &&
            r.reference <= r.pessimistic;
        rows.push_back(r);
    }
    {
        ValidationRow r;
        r.metric = "read energy [pJ/bit]";
        r.optimistic = opt.readEnergyPerBit() * 1e12;
        r.pessimistic = pess.readEnergyPerBit() * 1e12;
        r.reference = *published->arrayReadEnergyPjPerBit;
        r.covered = r.optimistic <= r.reference &&
            r.reference <= r.pessimistic;
        rows.push_back(r);
    }
    return rows;
}

std::vector<ArrayResult>
dnnBufferArrays(double capacityBytes)
{
    CellCatalog catalog;
    return ParallelSweepRunner(kStudyJobs)
        .optimizeAll(catalog.studyCells(), capacityBytes, 512,
                     OptTarget::ReadEDP);
}

std::vector<DnnPowerRow>
dnnContinuousPower()
{
    auto arrays = dnnBufferArrays();

    struct ScenarioSpec
    {
        const char *label;
        int tasks;
        const char *storage;
    };
    const ScenarioSpec scenarios[] = {
        {"single/weights", 1, "weights"},
        {"single/w+a", 1, "weights+activations"},
        {"multi/weights", 3, "weights"},
        {"multi/w+a", 3, "weights+activations"},
    };

    ParallelSweepRunner runner(kStudyJobs);
    std::vector<DnnPowerRow> rows;
    for (const auto &spec : scenarios) {
        TrafficPattern traffic = workloadPattern(
            std::string("{\"name\": \"dnn\", "
                        "\"network\": \"resnet26\", \"tasks\": ") +
                std::to_string(spec.tasks) + ", \"storage\": \"" +
                spec.storage + "\", \"fps\": 60}",
            512);
        auto evals = runner.evaluateAll(arrays, {traffic});
        // Row metrics come out of the registry — the same accessors
        // the filter/Pareto/CLI vocabulary names, so study output and
        // dashboard queries can never disagree on a definition.
        const metrics::Metric &power = metrics::metric("total_power");
        const metrics::Metric &load = metrics::metric("latency_load");
        const metrics::Metric &density =
            metrics::metric("density_mb_per_mm2");
        const metrics::Metric &viable = metrics::metric("viable");
        for (std::size_t i = 0; i < arrays.size(); ++i) {
            const ArrayResult &array = arrays[i];
            const EvalResult &ev = evals[i];
            DnnPowerRow row;
            row.cell = array.cell.name;
            row.scenario = spec.label;
            row.totalPowerW = power.eval(ev);
            row.latencyLoad = load.eval(ev);
            row.densityMbPerMm2 = density.array(array);
            row.meetsFps = viable.eval(ev) != 0.0;
            row.meetsAccuracy = accuracyOk(array.cell);
            rows.push_back(row);
        }
    }
    return rows;
}

std::vector<IntermittentRow>
dnnIntermittentEnergy(const std::vector<double> &eventsPerDay)
{
    CellCatalog catalog;

    struct TaskSpec
    {
        const char *label;
        NetworkModel net;
        int tasks;
    };
    const TaskSpec tasks[] = {
        {"img-single", resnet26(), 1},
        {"img-multi", resnet26(), 3},
        {"nlp-emb", albertEmbeddings(), 1},
        {"nlp-single", albertBase(), 1},
        {"nlp-multi", albertBase(), 3},
    };

    std::vector<IntermittentRow> rows;
    for (const auto &task : tasks) {
        DnnScenario scenario;
        scenario.network = task.net;
        scenario.tasks = task.tasks;
        scenario.storage = DnnStorage::WeightsOnly;
        DnnAccessProfile profile = extractAccessProfile(scenario);
        double capacity = provisionCapacity(profile.footprintBytes);

        for (const auto &cell : catalog.studyCells()) {
            ArrayResult array = optimizeFor(cell, capacity, 512,
                                            OptTarget::ReadEDP);
            for (double events : eventsPerDay) {
                IntermittentConfig config;
                config.eventsPerDay = events;
                config.readsPerEvent = profile.readWordsPerFrame;
                config.writesPerEvent = profile.writeWordsPerFrame;
                config.computeTimePerEvent =
                    (double)task.net.totalMacs() * task.tasks / 2e12;
                config.restoreBytesOnWake = profile.footprintBytes;
                IntermittentResult ir =
                    evaluateIntermittent(array, config);

                IntermittentRow row;
                row.cell = cell.name;
                row.task = task.label;
                row.eventsPerDay = events;
                row.energyPerEvent = ir.energyPerEvent;
                row.energyPerDay = ir.energyPerDay;
                row.capacityBytes = capacity;
                row.meetsLatency =
                    ir.eventLatency + ir.wakeLatency < 1.0;
                row.meetsAccuracy = accuracyOk(cell);
                rows.push_back(row);
            }
        }
    }
    return rows;
}

namespace {

/** Winner among a flavor pool by a key, folding the metric's
 *  registry direction ("best" power is the smallest value, "best"
 *  density the largest). */
template <typename Row, typename Key, typename Pool>
std::string
winner(const std::vector<Row> &rows, Pool inPool, Key key,
       metrics::Direction direction)
{
    const bool minimize = direction == metrics::Direction::Minimize;
    const Row *best = nullptr;
    for (const auto &row : rows) {
        if (!inPool(row))
            continue;
        double k = key(row);
        if (std::isnan(k))  // an unordered key is never the winner
            continue;
        if (!best || (minimize ? k < key(*best) : k > key(*best)))
            best = &row;
    }
    return best ? best->cell : "none";
}

bool
isOptimisticPool(const std::string &cellName)
{
    return cellName.find("-Opt") != std::string::npos;
}

bool
isAlternativePool(const std::string &cellName)
{
    return cellName.find("-Pess") != std::string::npos ||
        cellName.find("-Ref") != std::string::npos;
}

} // namespace

std::vector<UseCaseRow>
dnnUseCaseSummary()
{
    std::vector<UseCaseRow> table;

    // Continuous rows from the 60 FPS power study.
    auto powerRows = dnnContinuousPower();
    struct ContinuousSpec
    {
        const char *scenario;
        const char *task;
        const char *storage;
    };
    const ContinuousSpec continuous[] = {
        {"single/weights", "Single-Task Img", "Weights Only"},
        {"single/w+a", "Single-Task Img", "Weights+Acts"},
        {"multi/weights", "Multi-Task Img", "Weights Only"},
        {"multi/w+a", "Multi-Task Img", "Weights+Acts"},
    };
    for (const auto &spec : continuous) {
        std::vector<DnnPowerRow> eligible;
        for (const auto &row : powerRows) {
            if (row.scenario == spec.scenario && row.meetsFps &&
                row.meetsAccuracy && row.cell != "SRAM") {
                eligible.push_back(row);
            }
        }
        auto inOpt = [](const DnnPowerRow &r) {
            return isOptimisticPool(r.cell);
        };
        auto inAlt = [](const DnnPowerRow &r) {
            return isAlternativePool(r.cell);
        };
        const auto powerDir = metrics::metric("total_power").direction;
        const auto densityDir =
            metrics::metric("density_mb_per_mm2").direction;
        UseCaseRow lowPower{"Continuous(60IPS)", spec.task, spec.storage,
                            "Low Power", "", ""};
        lowPower.optChoice = winner(eligible, inOpt,
            [](const DnnPowerRow &r) { return r.totalPowerW; },
            powerDir);
        lowPower.altChoice = winner(eligible, inAlt,
            [](const DnnPowerRow &r) { return r.totalPowerW; },
            powerDir);
        table.push_back(lowPower);

        UseCaseRow density{"Continuous(60IPS)", spec.task, spec.storage,
                           "High Density", "", ""};
        density.optChoice = winner(eligible, inOpt,
            [](const DnnPowerRow &r) { return r.densityMbPerMm2; },
            densityDir);
        density.altChoice = winner(eligible, inAlt,
            [](const DnnPowerRow &r) { return r.densityMbPerMm2; },
            densityDir);
        table.push_back(density);
    }

    // Intermittent rows at a fixed 1-inference-per-second wake rate.
    auto irows = dnnIntermittentEnergy({86400.0});
    const char *tasks[] = {"img-single", "img-multi", "nlp-emb",
                           "nlp-single", "nlp-multi"};
    // Density per (cell, task) comes from the provisioned arrays; use
    // the cell-level density figure for ranking.
    CellCatalog catalog;
    auto cellDensity = [&](const std::string &name) {
        for (const auto &cell : catalog.studyCells())
            if (cell.name == name)
                return cell.densityBitsPerF2();
        return 0.0;
    };
    for (const char *task : tasks) {
        std::vector<IntermittentRow> eligible;
        for (const auto &row : irows) {
            if (row.task == task && row.meetsLatency &&
                row.meetsAccuracy && row.cell != "SRAM") {
                eligible.push_back(row);
            }
        }
        auto inOpt = [](const IntermittentRow &r) {
            return isOptimisticPool(r.cell);
        };
        auto inAlt = [](const IntermittentRow &r) {
            return isAlternativePool(r.cell);
        };
        UseCaseRow lowEnergy{"Intermittent(1IPS)", task, "Weights Only",
                             "Low Energy/Inf", "", ""};
        // Daily energy is an IntermittentResult quantity with no
        // EvalResult metric; it is minimized by definition.
        lowEnergy.optChoice = winner(eligible, inOpt,
            [](const IntermittentRow &r) { return r.energyPerDay; },
            metrics::Direction::Minimize);
        lowEnergy.altChoice = winner(eligible, inAlt,
            [](const IntermittentRow &r) { return r.energyPerDay; },
            metrics::Direction::Minimize);
        table.push_back(lowEnergy);

        UseCaseRow density{"Intermittent(1IPS)", task, "Weights Only",
                           "High Density", "", ""};
        const auto densityDir =
            metrics::metric("density_mb_per_mm2").direction;
        density.optChoice = winner(eligible, inOpt,
            [&](const IntermittentRow &r) {
                return cellDensity(r.cell);
            },
            densityDir);
        density.altChoice = winner(eligible, inAlt,
            [&](const IntermittentRow &r) {
                return cellDensity(r.cell);
            },
            densityDir);
        table.push_back(density);
    }
    return table;
}

namespace {

GraphStudyResult
graphStudyWithCells(const std::vector<MemCell> &cells,
                    double capacityBytes)
{
    GraphStudyResult result;
    constexpr int kWordBits = 64;  // 8-byte vertex/edge records

    ParallelSweepRunner runner(kStudyJobs);
    auto arrays = runner.optimizeAll(cells, capacityBytes, kWordBits,
                                     OptTarget::ReadEDP);

    // Generic grid spanning the graph-kernel demand range: the paper
    // sweeps 1-10 GB/s reads x 1-100 MB/s writes; we extend the low
    // end so the leakage-dominated regime (below ~1e7 reads/s) is
    // visible in the same sweep.
    auto grid = genericTrafficGrid(0.05e9, 10e9, 1e6, 100e6, 5,
                                   kWordBits);
    result.generic = runner.evaluateAll(arrays, grid);

    // Kernel points: BFS over two social graphs (Sec. IV-B2), via the
    // workload registry.
    TrafficPattern fbTraffic = workloadPattern(
        R"({"name": "graph", "graph": "facebook", "kernel": "bfs"})",
        kWordBits);
    TrafficPattern wikiTraffic = workloadPattern(
        R"({"name": "graph", "graph": "wikipedia", "kernel": "bfs"})",
        kWordBits);
    result.kernels = runner.evaluateAll(arrays, {fbTraffic, wikiTraffic});
    return result;
}

} // namespace

GraphStudyResult
graphStudy(double capacityBytes)
{
    CellCatalog catalog;
    return graphStudyWithCells(catalog.studyCells(), capacityBytes);
}

GraphStudyResult
bgFefetStudy(double capacityBytes)
{
    CellCatalog catalog;
    std::vector<MemCell> cells = {
        CellCatalog::sram16(),
        catalog.optimistic(CellTech::FeFET),
        catalog.pessimistic(CellTech::FeFET),
        CellCatalog::backGatedFeFET(),
        catalog.optimistic(CellTech::STT),
    };
    return graphStudyWithCells(cells, capacityBytes);
}

std::vector<ArrayResult>
llcArrays(double capacityBytes)
{
    CellCatalog catalog;
    SweepConfig sweep;
    sweep.cells = catalog.studyCells();
    sweep.capacitiesBytes = {capacityBytes};
    sweep.targets = allOptTargets();
    return ParallelSweepRunner(kStudyJobs).characterize(sweep);
}

std::vector<EvalResult>
llcStudy(double capacityBytes)
{
    CellCatalog catalog;
    ParallelSweepRunner runner(kStudyJobs);
    auto arrays = runner.optimizeAll(catalog.studyCells(),
                                     capacityBytes, 512,
                                     OptTarget::ReadEDP);

    std::vector<TrafficPattern> traffics = workloadTraffic(
        "{\"name\": \"llc\", \"benchmark\": \"suite\", "
        "\"instructions\": 20e6, \"warmup\": 5e6, \"llc_mib\": " +
            JsonValue::formatNumber(capacityBytes / kMiB) + "}",
        512);
    // Benchmark-major ordering (Fig. 9 groups by benchmark): evaluate
    // each traffic against every array in turn.
    std::vector<EvalResult> evals;
    for (const auto &traffic : traffics) {
        auto rows = runner.evaluateAll(arrays, {traffic});
        evals.insert(evals.end(), rows.begin(), rows.end());
    }
    return evals;
}

std::vector<ArrayResult>
areaEfficiencyStudy(double capacityBytes)
{
    CellCatalog catalog;
    std::vector<ArrayResult> all;
    for (const auto &cell : catalog.studyCells()) {
        ArrayConfig config;
        config.capacityBytes = capacityBytes;
        config.wordBits = 512;
        config.nodeNm = implementationNode(cell);
        // Admit low-efficiency organizations: the point of the study
        // is the efficiency/latency correlation across the full space.
        config.minAreaEfficiency = 0.05;
        ArrayDesigner designer(cell, config);
        auto results = designer.enumerate();
        all.insert(all.end(), results.begin(), results.end());
    }
    return all;
}

std::vector<MlcFaultRow>
mlcFaultStudy(int trials)
{
    if (trials < 1)
        fatal("mlcFaultStudy needs at least one trial");
    CellCatalog catalog;

    // The real inference substrate: train once, quantize once.
    SyntheticTask task(32, 10, 3000, 1500, 0xACC, 1.0);
    Mlp mlp({32, 64, 10}, 0x5EED);
    mlp.train(task, 12, 0.02);
    QuantizedMlp quantized = mlp.quantize();
    double baseline = quantized.accuracy(task.testX(), task.testY());

    std::vector<MemCell> cells;
    auto addPair = [&](MemCell slc) {
        cells.push_back(slc);
        if (slc.mlcCapable)
            cells.push_back(slc.makeMlc());
    };
    addPair(catalog.optimistic(CellTech::RRAM));
    addPair(catalog.optimistic(CellTech::FeFET));   // small cell
    addPair(catalog.pessimistic(CellTech::FeFET));  // large cell
    addPair(catalog.optimistic(CellTech::CTT));

    double resnetBytes = resnet18().weightBytes();

    std::vector<MlcFaultRow> rows;
    for (const auto &cell : cells) {
        FaultModel model(cell);
        double accSum = 0.0;
        for (int trial = 0; trial < trials; ++trial) {
            quantized.restore();
            FaultInjector injector(model,
                                   0x1234 + (std::uint64_t)trial);
            injector.inject(quantized.weightImage());
            accSum += quantized.accuracy(task.testX(), task.testY());
        }
        quantized.restore();
        double accuracy = accSum / trials;

        for (double capacity : {8.0 * kMiB, 16.0 * kMiB}) {
            ArrayResult array = optimizeFor(cell, capacity, 512,
                                            OptTarget::ReadEDP);
            MlcFaultRow row;
            row.cell = cell.name;
            row.bitsPerCell = cell.bitsPerCell;
            row.cellAreaF2 = cell.areaF2;
            row.bitErrorRate = model.bitErrorRate();
            row.accuracy = accuracy;
            row.baselineAccuracy = baseline;
            row.densityMbPerMm2 = array.densityMbPerMm2();
            row.capacityBytes = capacity;
            row.fitsWeights = resnetBytes <= capacity;
            row.meetsAccuracy = accuracy >= baseline - 0.01;
            rows.push_back(row);
        }
    }
    return rows;
}

std::vector<WriteBufferRow>
writeBufferStudy()
{
    CellCatalog catalog;
    std::vector<MemCell> cells = {
        CellCatalog::sram16(),
        catalog.optimistic(CellTech::STT),
        catalog.optimistic(CellTech::RRAM),
        catalog.optimistic(CellTech::PCM),
        catalog.optimistic(CellTech::FeFET),
    };

    // Workload 1: BFS on the Facebook-like graph (8 MiB scratchpad).
    TrafficPattern fbTraffic = workloadPattern(
        R"({"name": "graph", "graph": "facebook", "kernel": "bfs"})",
        64);

    // Workload 2: a write-heavy SPEC-like benchmark on a 16 MiB LLC.
    TrafficPattern lbmTraffic = workloadPattern(
        R"({"name": "llc", "benchmark": "lbm",
            "instructions": 10e6, "warmup": 2e6})",
        512);

    struct Workload
    {
        TrafficPattern traffic;
        double capacity;
        int wordBits;
    };
    const Workload workloads[] = {
        {fbTraffic, 8.0 * kMiB, 64},
        {lbmTraffic, 16.0 * kMiB, 512},
    };

    const std::pair<double, double> settings[] = {
        {0.0, 0.0}, {1.0, 0.0}, {1.0, 0.25}, {1.0, 0.5}, {1.0, 0.75},
    };

    std::vector<WriteBufferRow> rows;
    for (const auto &workload : workloads) {
        for (const auto &cell : cells) {
            ArrayResult array = optimizeFor(cell, workload.capacity,
                                            workload.wordBits,
                                            OptTarget::ReadEDP);
            for (auto [mask, reduction] : settings) {
                WriteBufferConfig config;
                config.latencyMaskFraction = mask;
                config.trafficReduction = reduction;
                EvalResult ev = evaluateWithWriteBuffer(
                    array, workload.traffic, config);
                WriteBufferRow row;
                row.cell = cell.name;
                row.workload = workload.traffic.name;
                row.latencyMask = mask;
                row.trafficReduction = reduction;
                row.totalPowerW = ev.totalPower;
                row.latencyLoad = ev.latencyLoad;
                row.viable = ev.viable();
                rows.push_back(row);
            }
        }
    }
    return rows;
}

} // namespace studies
} // namespace nvmexp
