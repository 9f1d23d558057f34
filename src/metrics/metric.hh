/**
 * @file
 * First-class metric vocabulary: the "filter and refine" stage of the
 * NVMExplorer flow (paper Fig. 2) as a string-keyed registry instead
 * of ad-hoc lambdas.
 *
 * A Metric names one number derivable from an evaluation row — either
 * an application-level quantity of the EvalResult ("total_power",
 * "latency_load") or an array-characterization quantity of the
 * embedded ArrayResult ("read_latency", "area_mm2", "read_edp") — and
 * carries the metadata downstream consumers need: display unit and
 * minimize/maximize direction. Registering metrics by name makes every
 * refinement path (config refine keys, the CLI's --filter/--pareto/
 * --top flags, store and served queries, study drivers) dispatch
 * through one declarative vocabulary that serializes losslessly — the
 * same move the workload registry made for traffic sources. The refine
 * engine (store::selectRows) reads a metric as a column: `eval` over
 * every row, once per query or once per loaded store index.
 */

#ifndef NVMEXP_METRICS_METRIC_HH
#define NVMEXP_METRICS_METRIC_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "eval/engine.hh"
#include "nvsim/array_model.hh"

namespace nvmexp {
namespace metrics {

/** Which way "better" points for a metric. */
enum class Direction { Minimize, Maximize };

/** @return "minimize" or "maximize". */
const char *directionName(Direction direction);

/** One named, unit-annotated accessor over evaluation results. */
struct Metric
{
    std::string name;         ///< registry key, e.g. "total_power"
    std::string unit;         ///< display unit, e.g. "W" ("1" = unitless)
    std::string description;  ///< one-liner for --list-metrics
    Direction direction = Direction::Minimize;

    /** Value over a full evaluation row; always set. */
    std::function<double(const EvalResult &)> eval;
    /** Value over a bare array characterization; null for metrics that
     *  need traffic (e.g. "total_power"). */
    std::function<double(const ArrayResult &)> array;

    bool minimize() const { return direction == Direction::Minimize; }
    /** True when the metric is defined on bare ArrayResults too. */
    bool hasArrayAccessor() const { return (bool)array; }

    /**
     * Direction-folded `value` of this metric: negated for Maximize
     * metrics, so every consumer can uniformly minimize (Pareto and
     * top-k in store::selectRows). Exact (negation does not round),
     * so a folded ranking is bitwise the hand-written `-value` one.
     */
    double ascending(double value) const
    {
        return minimize() ? value : -value;
    }
};

/**
 * Process-wide string-keyed metric registry. Built-in metrics are
 * registered on first access; embedders may add their own at any time.
 */
class MetricRegistry
{
  public:
    /** The singleton, with built-ins registered. */
    static MetricRegistry &instance();

    /** Register a metric; duplicate or empty names and a missing eval
     *  accessor are fatal. */
    void add(Metric metric);

    /** @return the metric or nullptr when unknown. */
    const Metric *find(const std::string &name) const;

    /** @return the metric; fatal with the known-name list when
     *  unknown (`context` prefixes the message, e.g. "--filter"). */
    const Metric &require(const std::string &name,
                          const std::string &context = "") const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    MetricRegistry() = default;

    std::map<std::string, Metric> metrics_;
};

/** Shorthand for MetricRegistry::instance().require(name). */
const Metric &metric(const std::string &name);

} // namespace metrics
} // namespace nvmexp

#endif // NVMEXP_METRICS_METRIC_HH
