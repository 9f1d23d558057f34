#include "metrics/refine.hh"

#include "metrics/metric.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace metrics {

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
