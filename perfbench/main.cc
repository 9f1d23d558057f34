/**
 * @file
 * nvmexp_perfbench: the repository's end-to-end benchmark.
 *
 * usage: nvmexp_perfbench --workload NAME --seed N --seconds S
 *                         --trace 0|1 --work-dir DIR
 *                         [--trace-file PATH] [--commit ID]
 *                         [--smoke] [--wrong-reference]
 *
 *   --trace 0  set up several times (median = setup_s), then time the
 *              workload untraced for S seconds: end-to-end metrics
 *   --trace 1  alternate untraced and traced replays of the workload,
 *              one layer call per span, for S seconds: per-layer
 *              metrics, a Chrome trace-event file, a self-time table,
 *              and the tracing overhead
 *   --smoke            shrunk sizes (the benchmark's own test)
 *   --wrong-reference  corrupt the references, so checks must fail
 *
 * The last line of stdout is the result object; the line before it
 * records the machine and build.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"
#include "util/logging.hh"

using namespace perfbench;

namespace {

/** Taken during static initialization: setup_s counts from here. */
const Clock::time_point processStart = Clock::now();

/** Every end-to-end metric, printed by every workload. */
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "slots_per_s",  "query_rps",           "query_ms_p50",
    "query_ms_p98", "peak_rss_mb", "store_bytes_per_slot"};

/** Every per-layer metric with its unit; a traced run prints all of
 *  them, 0 for layers its workload never calls. */
std::vector<Metric>
layerMetricTable()
{
    std::vector<Metric> table = {
        {"workload.expand_ms", 0, "ms"},
        {"workload.traffics", 0, "count"},
        {"nvsim.characterize_ms", 0, "ms"},
        {"nvsim.arrays", 0, "count"},
        {"eval.evaluate_ms", 0, "ms"},
        {"eval.slots", 0, "count"},
        {"core.run_ms", 0, "ms"},
        {"core.unattributed_ms", 0, "ms"},
        {"store.cache_cold_ms", 0, "ms"},
        {"store.cache_warm_ms", 0, "ms"},
        {"store.cache_hits", 0, "count"},
        {"store.cache_misses", 0, "count"},
        {"store.journal_ms", 0, "ms"},
        {"store.journal_bytes", 0, "B"},
        {"store.serialize_ms", 0, "ms"},
        {"store.results_bytes", 0, "B"},
        {"store.write_results_ms", 0, "ms"},
        {"store.load_results_ms", 0, "ms"},
        {"store.scan_checkpoint_ms", 0, "ms"},
        {"serve.index_load_ms", 0, "ms"},
        {"serve.http_parse_us", 0, "us"},
    };
    for (const char *shape : {"full-store", "filter", "pareto-2d",
                              "pareto-3d", "top-k", "pipeline"}) {
        std::string s = shape;
        table.push_back({"serve.query_parse_us." + s, 0, "us"});
        table.push_back({"serve.index_query_ms." + s, 0, "ms"});
        table.push_back({"serve.answer_serialize_ms." + s, 0, "ms"});
        table.push_back({"serve.answer_bytes." + s, 0, "B"});
        table.push_back({"serve.respond_us." + s, 0, "us"});
        table.push_back({"serve.dispatch_ms." + s, 0, "ms"});
        table.push_back({"serve.transport_ms." + s, 0, "ms"});
    }
    for (const char *name : {"campaign.plan_ms", "campaign.shard_ms.max",
                             "campaign.shard_ms.sum", "campaign.merge_ms"})
        table.push_back({name, 0, "ms"});
    table.push_back({"trace.overhead_pct", 0, "%"});
    return table;
}

int
usage(const std::string &why)
{
    std::cerr << "nvmexp_perfbench: " << why
              << "\nusage: nvmexp_perfbench --workload "
                 "sweep-store|sweep-model|serve-query|campaign --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-file "
                 "PATH] [--commit ID] [--smoke] [--wrong-reference]\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &options, std::string &error)
{
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (flag == "--wrong-reference") {
            options.wrongReference = true;
            continue;
        }
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        std::string value = argv[++i];
        char *end = nullptr;
        bool valid = true;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            valid = !value.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            valid = *end == '\0' && options.seconds > 0.0;
        } else if (flag == "--trace") {
            options.trace = value == "1";
            haveTrace = valid = value == "0" || value == "1";
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--trace-file") {
            options.traceFile = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else {
            error = "unknown flag " + flag;
            return false;
        }
        if (!valid) {
            error = "bad value '" + value + "' for " + flag;
            return false;
        }
    }
    if (options.workload.empty() || options.workDir.empty() ||
        !haveTrace) {
        error = "--workload, --work-dir and --trace are required";
        return false;
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "sweep-store")
        return makeSweepStore(options);
    if (options.workload == "sweep-model")
        return makeSweepModel(options);
    if (options.workload == "serve-query")
        return makeServeQuery(options);
    if (options.workload == "campaign")
        return makeCampaign(options);
    return nullptr;
}

/** Whether this binary was compiled with optimization and NDEBUG. */
constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif
constexpr bool kNdebug =
#if defined(NDEBUG)
    true;
#else
    false;
#endif

void
printContext(const Options &options)
{
    std::cout << "{\"context\": {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << __VERSION__
              << "\", \"optimized\": " << (kOptimized ? "true" : "false")
              << ", \"ndebug\": " << (kNdebug ? "true" : "false")
              << ", \"commit\": \"" << options.commit
              << "\", \"workload\": \"" << options.workload
              << "\", \"seed\": " << options.seed
              << ", \"seconds\": " << formatDouble(options.seconds)
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"smoke\": " << (options.smoke ? "true" : "false")
              << ", \"jobs\": " << options.jobs
              << ", \"connections\": "
              << (options.workload == "serve-query" ? options.jobs : 0)
              << "}}\n";
}

/** Untraced run: repeated setup, then the timed workload. */
void
runUntraced(const Options &options, std::unique_ptr<Workload> &workload,
            Report &report)
{
    const int setups = options.smoke ? 2 : 5;
    std::vector<double> setupSeconds;
    for (int i = 0; i < setups; ++i) {
        // Every set-up builds a fresh workload; tearing down the last
        // one (server shutdown, thread pools) is not timed. The first
        // set-up also pays process start and lazy initialization
        // (registries, catalogs).
        workload.reset();
        auto begin = i == 0 ? processStart : Clock::now();
        workload = makeWorkload(options);
        workload->setup(report);
        setupSeconds.push_back(msSince(begin) / 1000.0);
    }
    workload->measure(report);
    report.metric("setup_s", median(setupSeconds), "s");
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    report.metric("peak_rss_mb", (double)usage.ru_maxrss / 1024.0, "MB");
}

/**
 * Traced run: after one set-up, alternate untraced and traced
 * repetitions of (real operation, layer replay) for the run's seconds.
 * The tracing overhead compares the replay's wall time with spans on
 * and off.
 */
void
runTraced(const Options &options, Workload &workload, Report &report,
          Tracer &tracer)
{
    workload.setup(report);
    std::vector<double> untracedMs, tracedMs;
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    for (std::size_t rep = 0;
         tracedMs.size() < 2 || Clock::now() < deadline; ++rep) {
        bool traced = rep % 2 == 1;
        tracer.setEnabled(traced);
        if (traced)
            workload.operation(tracer, report);
        auto begin = Clock::now();
        tracer.span("bench.replay",
                    [&] { workload.replay(tracer, report); });
        (traced ? tracedMs : untracedMs).push_back(msSince(begin));
    }
    tracer.setEnabled(false);

    workload.layerMetrics(tracer, report);
    double untraced = median(untracedMs);
    report.metric("trace.overhead_pct",
                  (median(tracedMs) - untraced) / untraced * 100.0, "%");

    std::cout << tracer.selfTimeTable(tracedMs.size(), "bench.replay");
    for (const Metric &m : report.metrics()) {
        if (m.name == "core.unattributed_ms")
            std::cout << "  core.unattributed_ms (run() minus its layer "
                         "calls): "
                      << formatDouble(m.value) << "\n";
    }
    std::cout << "replay: " << untracedMs.size() << " untraced, "
              << tracedMs.size() << " traced repetitions; median "
              << formatDouble(untraced) << " ms untraced, "
              << formatDouble(median(tracedMs)) << " ms traced\n";
    if (!options.traceFile.empty()) {
        tracer.writeChromeTrace(options.traceFile);
        std::cout << "chrome trace: " << options.traceFile << "\n";
    }
}

/** Removes the scratch directory however main() exits. */
struct WorkDirGuard
{
    std::string dir;
    ~WorkDirGuard()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string error;
    if (!parseArgs(argc, argv, options, error))
        return usage(error);
    unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    options.jobs = (int)std::min(4u, hardware);
    auto workload = makeWorkload(options);
    if (!workload)
        return usage("unknown workload '" + options.workload + "'");
    if (!kOptimized || !kNdebug) {
        std::cerr << "nvmexp_perfbench: refusing to report numbers from "
                     "a build without optimization and NDEBUG\n";
        return 3;
    }

    nvmexp::setQuiet(true);
    std::filesystem::create_directories(options.workDir);
    WorkDirGuard guard{options.workDir};
    printContext(options);

    Report report;
    try {
        if (options.trace) {
            Tracer tracer;
            runTraced(options, *workload, report, tracer);
            for (const Metric &m : layerMetricTable()) {
                bool printed = std::any_of(
                    report.metrics().begin(), report.metrics().end(),
                    [&](const Metric &p) { return p.name == m.name; });
                if (!printed)
                    report.metric(m.name, 0.0, m.unit);
            }
        } else {
            runUntraced(options, workload, report);
            for (const auto &name : kEndToEnd) {
                bool printed = std::any_of(
                    report.metrics().begin(), report.metrics().end(),
                    [&](const Metric &p) { return p.name == name; });
                if (!printed)
                    throw std::logic_error("metric " + name +
                                           " was not measured");
            }
        }
        workload.reset();
    } catch (const std::exception &e) {
        std::cerr << "nvmexp_perfbench: " << e.what() << "\n";
        return 1;
    }

    std::cout << "failed_frac: " << report.failed() << "/"
              << report.attempted() << " = "
              << formatDouble(report.attempted()
                                  ? (double)report.failed() /
                                        (double)report.attempted()
                                  : 1.0)
              << "\n";
    std::cout << report.resultLine() << std::endl;
    return 0;
}
