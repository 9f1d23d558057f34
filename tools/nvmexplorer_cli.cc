/**
 * @file
 * Command-line front-end: `nvmexplorer_cli config/<study>.json` runs
 * the configured design sweep and prints the dashboard table — the
 * C++ analog of the original release's `python run.py <config>`.
 */

#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "campaign/campaign.hh"
#include "core/config.hh"
#include "core/parallel_sweep.hh"
#include "metrics/metric.hh"
#include "reliability/reliability.hh"
#include "serve/server.hh"
#include "store/result_store.hh"
#include "util/flags.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/workload.hh"

using namespace nvmexp;

namespace {

void
usage()
{
    std::cout <<
        "usage: nvmexplorer_cli [-q] [--jobs N] [--out DIR] [--resume]\n"
        "                       [--filter EXPR]... [--pareto METRICS]\n"
        "                       [--top K METRIC]\n"
        "                       <config.json> [more configs...]\n"
        "       nvmexplorer_cli query --store DIR [--filter EXPR]...\n"
        "                       [--pareto METRICS] [--top K METRIC]\n"
        "                       [--query FILE]\n"
        "       nvmexplorer_cli serve --store DIR [--port N] [--jobs N]\n"
        "       nvmexplorer_cli campaign plan --dir DIR --config FILE\n"
        "                       --shards N\n"
        "       nvmexplorer_cli campaign run --dir DIR --shard K/N\n"
        "                       [--jobs N]\n"
        "       nvmexplorer_cli campaign merge --dir DIR\n"
        "       nvmexplorer_cli campaign status --dir DIR\n"
        "\n"
        "Runs the design sweep(s) described by the JSON config(s) and\n"
        "prints the results table. See config/README-style samples in\n"
        "the repository's config/ directory. A config describes the\n"
        "design space only: how a run executes comes from these flags\n"
        "alone, and a config carrying \"jobs\", \"out_dir\",\n"
        "\"resume\" or \"campaign\" is refused.\n"
        "  -q         suppress informational warnings\n"
        "  --jobs N   worker threads for the sweep cross product\n"
        "             (0 = all hardware threads; default 1)\n"
        "  --out DIR  persist results.json/.csv, the characterization\n"
        "             cache, and a checkpoint journal under DIR (one\n"
        "             subdirectory per experiment when several configs\n"
        "             are given); without it nothing is persisted\n"
        "  --resume   continue an interrupted sweep from DIR's\n"
        "             checkpoint journal (results are byte-identical\n"
        "             to an uninterrupted run)\n"
        "  --filter 'METRIC<BOUND'\n"
        "             keep only rows satisfying the clause (repeatable,\n"
        "             ANDed; operators < <= > >= == !=); appended to a\n"
        "             config's own \"constraints\"\n"
        "  --pareto METRIC,METRIC[,METRIC...]\n"
        "             reduce to the N-D Pareto front over the named\n"
        "             metrics (overrides a config's \"pareto\" key)\n"
        "  --top K METRIC\n"
        "             keep the K best rows under the metric (overrides\n"
        "             a config's \"top_k\" key)\n"
        "  --list-metrics\n"
        "             print the metric vocabulary --filter/--pareto/\n"
        "             --top and \"constraints\"/\"pareto\"/\"top_k\"\n"
        "             config keys accept, then exit\n"
        "  --list-workloads\n"
        "             print the registered workload generators and\n"
        "             their parameter schemas, then exit\n"
        "  --list-ecc\n"
        "             print the ECC schemes a config's\n"
        "             \"reliability\"/\"ecc\" block accepts, then\n"
        "             exit\n"
        "\n"
        "The `query` subcommand applies a filter/Pareto/top-k pipeline\n"
        "to a persisted store offline and prints the matching rows in\n"
        "the results.json wire format (byte-identical to what `serve`\n"
        "answers for the same query). --query FILE reads a serialized\n"
        "query.json instead of flags.\n"
        "\n"
        "The `serve` subcommand answers the same queries over HTTP:\n"
        "POST /query (StoreQuery JSON body), GET /healthz, GET /statz,\n"
        "POST /reload (or SIGHUP) to re-index a rewritten store.\n"
        "\n"
        "The `campaign` subcommands shard one sweep across worker\n"
        "processes. `plan` writes DIR/campaign.json and snapshots the\n"
        "config; `run` evaluates one shard, and the shards may run at\n"
        "once, here or on other machines (kill-safe: re-running a\n"
        "shard resumes from its journal); `merge` validates every\n"
        "shard journal and writes DIR/merged from them, byte-identical\n"
        "to a single-process --out run; `status` prints per-shard\n"
        "progress and exits 0 exactly when `merge` would accept the\n"
        "config snapshot and every shard. A shard directory holds its\n"
        "journal and stats.json. A campaign planned from a config that\n"
        "carries a run-setting key must be planned again.\n";
}

/** `--list-metrics`: the registry is the single source of truth for
 *  the names --filter/--pareto/--top and the "constraints"/"pareto"/
 *  "top_k" config keys accept. */
void
listMetrics()
{
    auto &registry = metrics::MetricRegistry::instance();
    for (const auto &name : registry.names()) {
        const metrics::Metric &m = *registry.find(name);
        std::cout << name << " [" << m.unit << "] ("
                  << metrics::directionName(m.direction) << "): "
                  << m.description << "\n";
    }
}

/** `--list-workloads`: the registry is the single source of truth for
 *  what a config's {"workloads": [...]} section may name. */
void
listWorkloads()
{
    auto &registry = workload::WorkloadRegistry::instance();
    for (const auto &name : registry.names()) {
        const workload::Workload &w = *registry.find(name);
        std::cout << name << " — " << w.description() << "\n";
        for (const auto &p : w.schema()) {
            std::cout << "    " << p.key << " ("
                      << workload::paramKindName(p.kind)
                      << (p.required ? ", required" : "") << "): "
                      << p.description << "\n";
        }
    }
}

/** `--list-ecc`: the scheme vocabulary the "reliability"/"ecc" config
 *  block accepts; the reliability metrics derive from these. */
void
listEcc()
{
    for (const auto &scheme : reliability::eccSchemes()) {
        std::cout << scheme.name << " [" << scheme.codeBits << ","
                  << scheme.dataBits << "] corrects "
                  << scheme.correctable << ": " << scheme.description
                  << "\n";
    }
}

/**
 * Parse the refine flag at argv[argi], if it is one, into `query`:
 * --filter appends a clause, --pareto and --top replace their stage.
 * Metric names are validated here, so a typo fails before any
 * simulation runs. Shared by the sweep and `query` command lines.
 * @return argv entries consumed; 0 when argv[argi] is no refine flag.
 */
int
parseRefineFlag(int argc, char **argv, int argi, store::StoreQuery &query)
{
    if (std::strcmp(argv[argi], "--filter") == 0) {
        if (argi + 1 >= argc)
            fatal("--filter needs a 'metric<bound' clause");
        query.constraints.add(argv[argi + 1], "--filter");
        return 2;
    }
    if (std::strcmp(argv[argi], "--pareto") == 0) {
        if (argi + 1 >= argc)
            fatal("--pareto needs a comma-separated metric list");
        std::string list = argv[argi + 1];
        query.paretoMetrics.clear();
        for (std::size_t begin = 0; begin <= list.size();) {
            std::size_t comma = list.find(',', begin);
            if (comma == std::string::npos)
                comma = list.size();
            std::string name = list.substr(begin, comma - begin);
            if (name.empty())
                fatal("--pareto: empty metric name in '", list, "'");
            metrics::MetricRegistry::instance().require(name, "--pareto");
            query.paretoMetrics.push_back(name);
            begin = comma + 1;
        }
        return 2;
    }
    if (std::strcmp(argv[argi], "--top") == 0) {
        if (argi + 2 >= argc)
            fatal("--top needs a count and a metric name");
        // The bound "top_k" k has in a config and in query.json.
        query.topK = (std::size_t)parseCount("--top", argv[argi + 1], 1,
                                             (long)kMaxExactInteger);
        query.topMetric = argv[argi + 2];
        metrics::MetricRegistry::instance().require(query.topMetric,
                                                    "--top");
        return 3;
    }
    return 0;
}

/** Parsed common flags of the `query`/`serve` subcommands. */
struct StoreCommandArgs
{
    std::string storeDir;
    std::string queryFile;  ///< `query` only: serialized query.json
    int port = 0;
    int jobs = 4;
    store::StoreQuery query;  ///< `query` only: --filter/--pareto/--top
};

/** Parse argv[argi..] for `query`/`serve`; fatal on bad flags. */
StoreCommandArgs
parseStoreCommand(const char *command, int argc, char **argv, int argi,
                  bool isServe)
{
    StoreCommandArgs out;
    for (; argi < argc; ++argi) {
        if (std::strcmp(argv[argi], "-q") == 0) {
            setQuiet(true);
        } else if (std::strcmp(argv[argi], "--store") == 0) {
            if (argi + 1 >= argc)
                fatal(command, ": --store needs a directory");
            out.storeDir = argv[++argi];
        } else if (isServe && std::strcmp(argv[argi], "--port") == 0) {
            if (argi + 1 >= argc)
                fatal("serve: --port needs a port number");
            out.port =
                (int)parseCount("serve: --port", argv[++argi], 0, 65535);
        } else if (isServe && (std::strcmp(argv[argi], "--jobs") == 0 ||
                               std::strcmp(argv[argi], "-j") == 0)) {
            if (argi + 1 >= argc)
                fatal("serve: --jobs needs a thread count");
            out.jobs = (int)parseCount("serve: --jobs", argv[++argi], 1,
                                       ThreadPool::kMaxThreads);
        } else if (!isServe &&
                   std::strcmp(argv[argi], "--query") == 0) {
            if (argi + 1 >= argc)
                fatal("query: --query needs a file");
            out.queryFile = argv[++argi];
        } else if (int used = isServe ? 0
                                      : parseRefineFlag(argc, argv, argi,
                                                        out.query)) {
            argi += used - 1;  // the loop header steps past the flag
        } else {
            fatal(command, ": unknown argument '", argv[argi],
                  "' (see --help)");
        }
    }
    if (out.storeDir.empty())
        fatal(command, ": --store DIR is required");
    return out;
}

/** `nvmexplorer_cli query`: the offline comparator for the server —
 *  prints store::serializeResults of the matching rows, so a served
 *  /query response can be byte-diffed against it. */
int
runQueryCommand(int argc, char **argv, int argi)
{
    StoreCommandArgs args =
        parseStoreCommand("query", argc, argv, argi, false);
    if (!args.queryFile.empty()) {
        if (!args.query.empty()) {
            fatal("query: --query FILE replaces the "
                  "--filter/--pareto/--top flags; pass one or the "
                  "other");
        }
        std::string text;
        if (!readFile(args.queryFile, text))
            fatal("query: cannot read '", args.queryFile, "'");
        store::readJson(text, args.queryFile, args.query);
    }
    std::cout << store::serializeResults(
        store::queryStore(args.storeDir, args.query));
    return 0;
}

/** `nvmexplorer_cli serve`: sweep-as-a-service over one store. */
int
runServeCommand(int argc, char **argv, int argi)
{
    StoreCommandArgs args =
        parseStoreCommand("serve", argc, argv, argi, true);
    serve::ServeOptions options;
    options.storeDir = args.storeDir;
    options.port = args.port;
    options.jobs = args.jobs;
    serve::QueryServer server(options);
    std::string error;
    if (!server.start(error))
        fatal("serve: ", error);
    serve::QueryServer::installSighupHandler();
    inform("serving store '", args.storeDir, "' on port ",
           server.port(), " (", server.index()->rows(),
           " rows, fingerprint ", server.index()->fingerprint(),
           "); POST /query, GET /healthz, GET /statz, POST /reload");
    server.run();
    return 0;
}

/** Parsed flags of the `campaign` subcommands. */
struct CampaignArgs
{
    std::string dir;
    std::string configFile;
    std::size_t shards = 0;      ///< plan: --shards
    std::size_t shard = 0;       ///< run: K of --shard K/N
    std::size_t shardCount = 0;  ///< run: N of --shard K/N
    bool shardSet = false;
    int jobs = 1;                ///< run: --jobs
};

CampaignArgs
parseCampaignArgs(const std::string &command, int argc, char **argv,
                  int argi)
{
    const char *cmd = command.c_str();
    const std::string shardFlag = command + ": --shard";
    CampaignArgs out;
    for (; argi < argc; ++argi) {
        if (std::strcmp(argv[argi], "-q") == 0) {
            setQuiet(true);
        } else if (std::strcmp(argv[argi], "--dir") == 0) {
            if (argi + 1 >= argc)
                fatal(cmd, ": --dir needs a campaign directory");
            out.dir = argv[++argi];
        } else if (command == "campaign plan" &&
                   std::strcmp(argv[argi], "--config") == 0) {
            if (argi + 1 >= argc)
                fatal(cmd, ": --config needs a config file");
            out.configFile = argv[++argi];
        } else if (command == "campaign plan" &&
                   std::strcmp(argv[argi], "--shards") == 0) {
            if (argi + 1 >= argc)
                fatal(cmd, ": --shards needs a shard count");
            out.shards = (std::size_t)parseCount(
                command + ": --shards", argv[argi + 1], 1,
                (long)campaign::kMaxShards);
            ++argi;
        } else if (command == "campaign run" &&
                   std::strcmp(argv[argi], "--shard") == 0) {
            if (argi + 1 >= argc)
                fatal(cmd, ": --shard needs K/N (e.g. 0/4)");
            std::string spec = argv[argi + 1];
            std::size_t slash = spec.find('/');
            if (slash == std::string::npos || slash == 0 ||
                slash + 1 >= spec.size()) {
                fatal(cmd, ": --shard '", spec,
                      "' must be K/N (e.g. 0/4)");
            }
            out.shardCount = (std::size_t)parseCount(
                shardFlag, spec.substr(slash + 1).c_str(), 1,
                (long)campaign::kMaxShards);
            out.shard = (std::size_t)parseCount(
                shardFlag, spec.substr(0, slash).c_str(), 0,
                (long)out.shardCount - 1);
            out.shardSet = true;
            ++argi;
        } else if (command == "campaign run" &&
                   (std::strcmp(argv[argi], "--jobs") == 0 ||
                    std::strcmp(argv[argi], "-j") == 0)) {
            if (argi + 1 >= argc)
                fatal(cmd, ": --jobs needs a thread count");
            out.jobs = (int)parseCount(command + ": --jobs",
                                       argv[argi + 1], 0,
                                       ThreadPool::kMaxThreads);
            ++argi;
        } else {
            fatal(cmd, ": unknown argument '", argv[argi],
                  "' (see --help)");
        }
    }
    if (out.dir.empty())
        fatal(cmd, ": --dir DIR is required");
    return out;
}

int
runCampaignCommand(int argc, char **argv, int argi)
{
    if (argi >= argc) {
        fatal("campaign: needs a subcommand: plan, run, merge, or "
              "status");
    }
    std::string sub = argv[argi++];

    if (sub == "plan") {
        CampaignArgs args =
            parseCampaignArgs("campaign plan", argc, argv, argi);
        if (args.configFile.empty())
            fatal("campaign plan: --config FILE is required");
        if (args.shards == 0)
            fatal("campaign plan: --shards N is required");
        ExperimentConfig config =
            loadExperimentFile(args.configFile);
        campaign::CampaignManifest manifest =
            campaign::planCampaign(args.dir, config.sweep, args.shards);
        // Snapshot the config bytes verbatim so workers and the merge
        // see exactly the planned sweep even if the original file is
        // edited later.
        std::string bytes;
        if (!readFile(args.configFile, bytes)) {
            fatal("campaign plan: cannot re-read '", args.configFile,
                  "'");
        }
        writeFileAtomically(args.dir + "/config.json", bytes);
        inform("campaign '", args.dir, "': fingerprint ",
               manifest.fingerprint, ", ", manifest.shardCount,
               " shards, granularity ", manifest.granularity,
               " slots; run one `campaign run --dir ", args.dir,
               " --shard K/", manifest.shardCount,
               "` per shard (at once or in any order), then "
               "`campaign merge --dir ", args.dir, "`");
        return 0;
    }

    if (sub == "run") {
        CampaignArgs args =
            parseCampaignArgs("campaign run", argc, argv, argi);
        if (!args.shardSet)
            fatal("campaign run: --shard K/N is required");
        campaign::CampaignManifest manifest =
            campaign::loadManifest(args.dir);
        if (args.shardCount != manifest.shardCount) {
            fatal("campaign run: --shard names ", args.shardCount,
                  " shards, the campaign has ", manifest.shardCount);
        }
        ExperimentConfig config =
            campaign::loadPlannedConfig(args.dir, manifest);
        config.sweep.jobs = args.jobs;
        ParallelSweepRunner runner(args.jobs);
        auto rows = campaign::runShard(args.dir, config.sweep,
                                       args.shard, runner);
        inform("campaign run: shard ", args.shard, "/",
               manifest.shardCount, " complete (", rows.size(),
               " slots)");
        return 0;
    }

    if (sub == "merge") {
        CampaignArgs args =
            parseCampaignArgs("campaign merge", argc, argv, argi);
        campaign::CampaignManifest manifest =
            campaign::loadManifest(args.dir);
        // A config snapshot that no longer loads or drifted since the
        // plan is a user error worth naming before the shard checks.
        campaign::loadPlannedConfig(args.dir, manifest);
        campaign::MergeSummary summary =
            campaign::mergeCampaign(args.dir);
        inform("campaign merge: ", summary.totalSlots,
               " slots from ", summary.shardCount,
               " shards merged into '", campaign::mergedDir(args.dir),
               "' (fingerprint ", manifest.fingerprint, ")");
        return 0;
    }

    if (sub == "status") {
        CampaignArgs args =
            parseCampaignArgs("campaign status", argc, argv, argi);
        campaign::CampaignStatus status =
            campaign::campaignStatus(args.dir);
        // The config snapshot and every shard pass the checks merge
        // runs, or status exits 1 naming what merge would refuse.
        std::string configProblem;
        try {
            ScopedFatalThrows guard;
            campaign::loadPlannedConfig(args.dir, status.manifest);
        } catch (const FatalError &error) {
            configProblem = error.what();
        }
        std::cout << "campaign " << args.dir << ": fingerprint "
                  << status.manifest.fingerprint << ", "
                  << status.manifest.shardCount
                  << " shards, granularity "
                  << status.manifest.granularity << "\n";
        if (!configProblem.empty())
            std::cout << "  config: " << configProblem << "\n";
        for (const auto &shard : status.shards) {
            std::cout << "  shard " << shard.shard << ": "
                      << shard.state << ", " << shard.doneSlots;
            if (shard.ownedSlots)
                std::cout << "/" << shard.ownedSlots;
            std::cout << " slots journaled\n";
            if (!shard.problem.empty())
                std::cout << "    " << shard.problem << "\n";
        }
        std::cout << "  merged: " << (status.merged ? "yes" : "no")
                  << "\n";
        return status.allComplete() && configProblem.empty() ? 0 : 1;
    }

    fatal("campaign: unknown subcommand '", sub,
          "' (plan, run, merge, or status)");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "query") == 0)
        return runQueryCommand(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return runServeCommand(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
        return runCampaignCommand(argc, argv, 2);
    int argi = 1;
    int jobs = 1;
    std::string outDir;
    bool resume = false;
    store::StoreQuery cliQuery;  ///< --filter/--pareto/--top
    while (argi < argc && argv[argi][0] == '-' &&
           std::strcmp(argv[argi], "-") != 0) {
        if (std::strcmp(argv[argi], "-q") == 0) {
            setQuiet(true);
            ++argi;
        } else if (int used = parseRefineFlag(argc, argv, argi,
                                              cliQuery)) {
            argi += used;
        } else if (std::strcmp(argv[argi], "--jobs") == 0 ||
                   std::strcmp(argv[argi], "-j") == 0) {
            if (argi + 1 >= argc)
                fatal("--jobs needs a thread count");
            jobs = (int)parseCount("--jobs", argv[argi + 1], 0,
                                   ThreadPool::kMaxThreads);
            argi += 2;
        } else if (std::strcmp(argv[argi], "--out") == 0 ||
                   std::strcmp(argv[argi], "-o") == 0) {
            if (argi + 1 >= argc)
                fatal("--out needs a directory");
            outDir = argv[argi + 1];
            argi += 2;
        } else if (std::strcmp(argv[argi], "--resume") == 0) {
            resume = true;
            ++argi;
        } else if (std::strcmp(argv[argi], "--list-metrics") == 0) {
            listMetrics();
            return 0;
        } else if (std::strcmp(argv[argi], "--list-workloads") == 0) {
            listWorkloads();
            return 0;
        } else if (std::strcmp(argv[argi], "--list-ecc") == 0) {
            listEcc();
            return 0;
        } else if (std::strcmp(argv[argi], "--help") == 0 ||
                   std::strcmp(argv[argi], "-h") == 0) {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }
    if (argi >= argc) {
        usage();
        return 2;
    }
    if (resume && outDir.empty())
        fatal("--resume needs a store: pass --out DIR");
    const bool multipleConfigs = argc - argi > 1;
    std::set<std::string> usedSubdirs;
    for (; argi < argc; ++argi) {
        ExperimentConfig config = loadExperimentFile(argv[argi]);
        // The run settings come from the flags alone. Several
        // experiments sharing one --out each get their own
        // subdirectory (a store holds one sweep at a time), made
        // unique even when experiment names repeat or collide with an
        // earlier name's "-N" suffix.
        config.sweep.jobs = jobs;
        config.sweep.resume = resume;
        if (!outDir.empty()) {
            std::string sub = config.name;
            for (int n = 2; !usedSubdirs.insert(sub).second; ++n)
                sub = config.name + "-" + std::to_string(n);
            config.sweep.outDir =
                multipleConfigs ? outDir + "/" + sub : outDir;
        }
        // Refine flags layer onto the config's own pipeline: --filter
        // clauses are ANDed after the config's constraints, while
        // --pareto/--top override the corresponding keys outright.
        for (const auto &clause : cliQuery.constraints.clauses())
            config.query.constraints.add(clause);
        if (!cliQuery.paretoMetrics.empty())
            config.query.paretoMetrics = cliQuery.paretoMetrics;
        if (!cliQuery.topMetric.empty()) {
            config.query.topMetric = cliQuery.topMetric;
            config.query.topK = cliQuery.topK;
        }
        inform("running experiment '", config.name, "' (",
               config.sweep.cells.size(), " cells x ",
               config.sweep.capacitiesBytes.size(), " capacities x ",
               config.sweep.targets.size(), " targets x ",
               config.sweep.traffics.size(), " traffic patterns + ",
               config.sweep.workloads.size(), " workloads, ",
               ThreadPool::resolveJobs(config.sweep.jobs), " jobs)");
        Table table = runExperiment(config);
        table.print(std::cout);
        if (!config.outputCsv.empty())
            inform("wrote ", config.outputCsv);
        if (!config.sweep.outDir.empty()) {
            // Persist the refine pipeline next to the results it was
            // applied to: query.json is written and read through the
            // query's one field table, so the exact dashboard view can
            // be reproduced offline from the store alone.
            if (!config.query.empty()) {
                store::writeJsonFile(config.sweep.outDir + "/query.json",
                                     config.query);
            }
            store::StoreStats stats =
                store::loadStats(config.sweep.outDir);
            inform("result store '", config.sweep.outDir,
                   "': cache hits ", stats.cacheHits, "/",
                   stats.cacheLookups(), ", checkpoint slots reused ",
                   stats.checkpointLoaded, ", computed ",
                   stats.checkpointComputed);
        }
    }
    return 0;
}
