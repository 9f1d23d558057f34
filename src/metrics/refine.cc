#include "metrics/refine.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace nvmexp {
namespace metrics {

std::vector<EvalResult>
paretoByMetrics(const std::vector<EvalResult> &results,
                const std::vector<std::string> &names,
                const std::string &context)
{
    if (names.empty()) {
        fatal(context.empty() ? "pareto" : context,
              ": needs at least one metric name");
    }
    std::vector<const Metric *> resolved;
    resolved.reserve(names.size());
    for (const auto &name : names) {
        resolved.push_back(&MetricRegistry::instance().require(
            name, context.empty() ? "pareto" : context));
    }

    // Drop rows with a NaN key: an unordered value can neither
    // dominate nor be dominated, and NaN keys would violate the sort
    // precondition inside paretoFrontND. Rows are only copied when a
    // NaN actually occurs — the common all-ordered case runs on the
    // input vector directly.
    auto ordered = [&](const EvalResult &r) {
        for (const Metric *m : resolved)
            if (std::isnan(m->eval(r)))
                return false;
        return true;
    };
    const std::vector<EvalResult> *input = &results;
    std::vector<EvalResult> rankable;
    if (!std::all_of(results.begin(), results.end(), ordered)) {
        rankable.reserve(results.size());
        for (const auto &r : results)
            if (ordered(r))
                rankable.push_back(r);
        input = &rankable;
    }

    std::vector<std::function<double(const EvalResult &)>> keys;
    keys.reserve(resolved.size());
    for (const Metric *m : resolved) {
        keys.push_back(
            [m](const EvalResult &r) { return m->ascending(r); });
    }
    return paretoFrontND(*input, keys);
}

const EvalResult *
bestByMetric(const std::vector<EvalResult> &results,
             const std::string &name, const std::string &context)
{
    const Metric &m = MetricRegistry::instance().require(
        name, context.empty() ? "best-by" : context);
    return bestBy(results,
                  [&m](const EvalResult &r) { return m.ascending(r); });
}

std::vector<EvalResult>
topByMetric(const std::vector<EvalResult> &results,
            const std::string &name, std::size_t k,
            const std::string &context)
{
    const Metric &m = MetricRegistry::instance().require(
        name, context.empty() ? "top-k" : context);
    if (k == 0) {
        // The JSON/CLI paths reject k=0 at parse time; catch the
        // programmatic path too rather than silently returning {}.
        fatal(context.empty() ? "top-k" : context,
              ": k must be a positive count");
    }

    std::vector<double> keys(results.size());
    std::vector<std::size_t> order;
    order.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        keys[i] = m.ascending(results[i]);
        if (!std::isnan(keys[i]))
            order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t lhs, std::size_t rhs) {
                         return keys[lhs] < keys[rhs];
                     });
    if (order.size() > k)
        order.resize(k);

    std::vector<EvalResult> out;
    out.reserve(order.size());
    for (std::size_t index : order)
        out.push_back(results[index]);
    return out;
}

std::vector<std::string>
paretoMetricsFromJson(const JsonValue &doc, const std::string &context)
{
    std::vector<std::string> names;
    for (const auto &entry : doc.asArray()) {
        if (!entry.isString())
            fatal(context, ": \"pareto\" entries must be metric names");
        MetricRegistry::instance().require(entry.asString(),
                                           context + ": \"pareto\"");
        names.push_back(entry.asString());
    }
    if (names.empty())
        fatal(context, ": \"pareto\" needs at least one metric name");
    return names;
}

TopSpec
topSpecFromJson(const JsonValue &doc, const std::string &context)
{
    if (!doc.isObject()) {
        fatal(context, ": \"top_k\" must be an object "
              "{\"metric\": <name>, \"k\": <count>}");
    }
    TopSpec spec;
    spec.metric = doc.at("metric").asString();
    MetricRegistry::instance().require(spec.metric,
                                       context + ": \"top_k\"");
    if (!doc.at("k").isNumber()) {
        fatal(context, ": \"top_k\" k must be a positive integer");
    }
    double k = doc.at("k").asNumber();
    if (!isWholeNumber(k, 1, (double)kMaxExactInteger)) {
        fatal(context, ": \"top_k\" k must be a positive integer, "
              "got ", JsonValue::formatNumber(k));
    }
    spec.k = (std::size_t)k;
    return spec;
}

} // namespace metrics
} // namespace nvmexp
