/**
 * @file
 * JSON configuration front-end: the C++ equivalent of the original
 * release's `python run.py config/<study>.json` interface.
 *
 * A config file names the cells, capacities, optimization targets,
 * traffic patterns, and refine pipeline of a design sweep;
 * loadExperiment turns it into a SweepConfig + store::StoreQuery and
 * runExperiment produces the combined results table (and optional
 * CSV).
 *
 * A config describes the design space only. How a run executes (its
 * worker count, store directory, resume, and campaign shard count)
 * comes from the command line alone, so the same file always loads
 * to the same SweepConfig: jobs 1, no store, no resume.
 */

#ifndef NVMEXP_CORE_CONFIG_HH
#define NVMEXP_CORE_CONFIG_HH

#include <set>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "store/result_store.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace nvmexp {

/** A fully resolved experiment specification. */
struct ExperimentConfig
{
    std::string name = "experiment";
    SweepConfig sweep;
    /**
     * Refine pipeline (the paper's "filter and refine" stage) applied
     * after the sweep through store::applyQuery: the config's
     * "constraints" clause array, "pareto" metric list, and "top_k"
     * object. The CLI's --filter/--pareto/--top flags layer onto it,
     * and a non-empty query is persisted as the store's query.json.
     */
    store::StoreQuery query;
    /** Config had a "reliability"/"ecc" block: the dashboard table
     *  grows ECC/failure-rate columns. Off by default so sweeps
     *  without a reliability axis print exactly as before. */
    bool showReliability = false;
    std::string outputCsv;  ///< empty = don't write
};

/**
 * Resolve a cell reference string to a catalog cell:
 *   "SRAM", "<Tech>-Opt", "<Tech>-Pess", "RRAM-Ref", "FeFET-BG",
 * optionally suffixed with "+MLC2" for the 2-bit variant; or the
 * special name "study-set" handled by loadExperiment. fatal() on
 * unknown references.
 */
MemCell resolveCellReference(const std::string &reference);

/** The top-level keys a config may hold, sorted: loadExperiment
 *  refuses any other (a typo'd "tagets" must not run the default
 *  sweep), and nvmexplorer_lint reports it. */
const std::set<std::string> &knownConfigKeys();

/** Why a config may not carry the top-level `key`, one that is not
 *  in knownConfigKeys(): the run settings "jobs", "out_dir",
 *  "resume", and "campaign" name the flag that carries each (--jobs,
 *  --out, --resume, and `campaign plan --shards N`); any other key
 *  gets the list of known keys. loadExperiment's fatal and
 *  nvmexplorer_lint's diagnostic both give this message. */
std::string unknownKeyMessage(const std::string &key);

/** Build an ExperimentConfig from a parsed JSON document; fatal()
 *  naming the config on an unknown top-level key or a bad value. */
ExperimentConfig loadExperiment(const JsonValue &doc);

/** Parse + load a config file; every rejection names `path`. */
ExperimentConfig loadExperimentFile(const std::string &path);

/**
 * Run the experiment and collect the standard dashboard columns
 * (cell, traffic, power, latency load, lifetime, viability...).
 * Writes outputCsv when configured.
 */
Table runExperiment(const ExperimentConfig &config);

} // namespace nvmexp

#endif // NVMEXP_CORE_CONFIG_HH
