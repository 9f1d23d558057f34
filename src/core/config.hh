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
#include <string_view>
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

/** The top-level keys a config may hold, sorted, as the config's
 *  field table declares them: loadExperiment refuses any other (a
 *  typo'd "tagets" must not run the default sweep), naming the known
 *  ones. The run settings "jobs", "out_dir", "resume", and "campaign"
 *  are refused by name too, naming the flag that carries each (--jobs,
 *  --out, --resume, and `campaign plan --shards N`). */
const std::set<std::string> &knownConfigKeys();

/** Decode the value at `r` as the top-level member `key` on its own,
 *  through its field in the config table, refusing it exactly as
 *  loadExperiment would. nvmexplorer_lint checks each member so, and
 *  the members that depend on each other by the full load. */
void checkConfigMember(JsonReader &r, std::string_view key);

/**
 * Build an ExperimentConfig from a config document, decoded through
 * the config's field tables: every member, at every depth, is declared,
 * so a misspelled one is refused by name, as is a wrong kind, a bad
 * value, and members that exclude each other. Each refusal is fatal,
 * naming the line, column and member path.
 */
ExperimentConfig loadExperiment(const JsonValue &doc);

/** loadExperiment over a config file; every refusal names `path`. */
ExperimentConfig loadExperimentFile(const std::string &path);

/**
 * Run the experiment and collect the standard dashboard columns
 * (cell, traffic, power, latency load, lifetime, viability...).
 * Writes outputCsv when configured.
 */
Table runExperiment(const ExperimentConfig &config);

} // namespace nvmexp

#endif // NVMEXP_CORE_CONFIG_HH
