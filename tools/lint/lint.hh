/**
 * @file
 * nvmexplorer_lint: static cross-reference checks over the repo's
 * artifacts, driven by the real registries (metrics, workloads, ECC
 * schemes) rather than a parallel list that could drift.
 *
 * Four check families:
 *
 *   configs     every config JSON file parses, uses only known top-level
 *               keys, references only registered metrics / workloads /
 *               ECC schemes in its constraint, pareto, top_k, workload
 *               and reliability sections, and passes the full
 *               loadExperiment() validation
 *   registries  the metric registry is internally consistent (unique
 *               sorted keys, unit + description + eval present), and
 *               every results.csv and dashboard column is either a
 *               known identity column or backed by a registered metric
 *   goldens     golden result files decode end to end through the
 *               store's record decoders, at the current store format
 *   stores      store directories carry a current-format checkpoint
 *               header with a fingerprint, read as the store's header
 *               record, and stats.json and results.json that load as
 *               `query` and `serve` load them
 *
 * Checks collect diagnostics instead of exiting: load-time fatal()s
 * are converted to FatalError via ScopedFatalThrows and reported with
 * the file and config key they came from.
 */

#ifndef NVMEXP_TOOLS_LINT_LINT_HH
#define NVMEXP_TOOLS_LINT_LINT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace nvmexp {
namespace lint {

/** One finding: the artifact, the key/section inside it, and what is
 *  wrong. `key` is empty for whole-file problems (parse errors). */
struct LintDiagnostic
{
    std::string file;     ///< artifact path (or "<registry>")
    std::string key;      ///< offending key/section, "" for whole-file
    std::string message;  ///< what is wrong, with known-name context
};

/** Accumulated findings across one or more checks. */
struct LintReport
{
    std::vector<LintDiagnostic> diagnostics;
    std::size_t checked = 0;  ///< artifacts examined

    bool clean() const { return diagnostics.empty(); }

    void add(std::string file, std::string key, std::string message);
    void merge(const LintReport &other);

    /** One line per diagnostic: "file: [key] message". */
    void print(std::ostream &out) const;
};

/** Lint one experiment config JSON file. */
LintReport lintConfigFile(const std::string &path);

/** Lint one golden result file ({"format": v, "results": [...]}). */
LintReport lintGoldenFile(const std::string &path);

/** Lint one committed google-benchmark snapshot (BENCH_*.json):
 *  exactly the fields tools/bench_gate.py consumes — a context with a
 *  usable CPU count, iteration rows with unique names, finite
 *  real_time values in a known time unit, and the scalar/batched
 *  reference benchmarks the gate normalizes against — plus the
 *  nvmexp build record benchsupport::benchMain writes, which must
 *  say NDEBUG and __OPTIMIZE__ were set. */
LintReport lintBenchFile(const std::string &path);

/** Lint one result-store directory: the checkpoint.jsonl header,
 *  stats.json and results.json, each read by the store's own decoders
 *  (a renamed member is named). */
LintReport lintStoreDir(const std::string &dir);

/** Lint one campaign directory: campaign.json (format versions,
 *  fingerprint, whole counts), every shard directory present
 *  (lintStoreDir + a journal fingerprint cross-check against the
 *  manifest), the merged store, and the snapshotted config.json, which
 *  must lint clean and then pass campaign::loadPlannedConfig, as for
 *  `campaign run`, `merge` and `status`. */
LintReport lintCampaignDir(const std::string &dir);

/** Lint the built-in registries and the CSV/dashboard schemas. */
LintReport lintRegistries();

/** The --all sweep over a repo checkout: registries plus
 *  JSON files under <root>/config and <root>/tests/data, and any store
 *  directory found under <root>/tests/data. */
LintReport lintTree(const std::string &root);

} // namespace lint
} // namespace nvmexp

#endif // NVMEXP_TOOLS_LINT_LINT_HH
