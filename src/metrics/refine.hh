/**
 * @file
 * Parsers for the named-metric refine stages of the paper's "filter
 * and refine" step (Fig. 2): a "pareto" metric list and a "top_k"
 * object, validated against the metric registry. Configs, store
 * query.json files, /query bodies and the lint all read them here;
 * the stages themselves run in the one refine engine,
 * store::selectRows, over metric columns.
 */

#ifndef NVMEXP_METRICS_REFINE_HH
#define NVMEXP_METRICS_REFINE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.hh"

namespace nvmexp {
namespace metrics {

/**
 * Parse a "pareto" JSON array of metric names, validating each
 * against the registry (fatal with `context` on unknowns or an empty
 * array). Shared by the config front-end and store queries.
 */
std::vector<std::string>
paretoMetricsFromJson(const JsonValue &doc, const std::string &context);

/** A validated "top_k" specification. */
struct TopSpec
{
    std::string metric;
    std::size_t k = 0;
};

/** Parse a "top_k" JSON object {"metric": <name>, "k": <positive
 *  integer>}; fatal with `context` on unknown metric or bad k. */
TopSpec topSpecFromJson(const JsonValue &doc,
                        const std::string &context);

} // namespace metrics
} // namespace nvmexp

#endif // NVMEXP_METRICS_REFINE_HH
