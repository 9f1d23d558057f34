/**
 * @file
 * Declarative constraints: a set of (metric, op, bound) clauses over
 * the metric registry, the one constraint representation of the
 * "filter and refine" stage.
 *
 * A clause is expressible in three equivalent forms that convert
 * losslessly into each other:
 *
 *   text    "total_power<0.5"           (the CLI's --filter syntax)
 *   JSON    {"metric": "total_power", "op": "<", "bound": 0.5}
 *   C++     ConstraintClause{"total_power", ConstraintOp::LT, 0.5}
 *
 * so the same filter can live in a JSON config, a CLI flag, a store's
 * query.json, or a study driver. Clause order is preserved for
 * serialization, but evaluation proceeds cheapest-metric-first —
 * clauses are pure ANDed predicates, so reordering never changes
 * which rows pass.
 */

#ifndef NVMEXP_METRICS_CONSTRAINTS_HH
#define NVMEXP_METRICS_CONSTRAINTS_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hh"
#include "metrics/metric.hh"
#include "util/json.hh"

namespace nvmexp {
namespace metrics {

/** Comparison operator of one constraint clause. */
enum class ConstraintOp { LT, LE, GT, GE, EQ, NE };

/** @return "<", "<=", ">", ">=", "==", or "!=". */
const char *constraintOpName(ConstraintOp op);

/** Inverse of constraintOpName; fatal (with `context`) on anything
 *  else. */
ConstraintOp constraintOpFromName(const std::string &name,
                                  const std::string &context = "");

/** One (metric, op, bound) clause. */
struct ConstraintClause
{
    std::string metric;  ///< registry key; validated on construction
    ConstraintOp op = ConstraintOp::LE;
    double bound = 0.0;

    /** Apply the comparison to an already-extracted value (extraction
     *  lives in ConstraintSet, which caches the resolved metric so
     *  per-row evaluation never touches the registry). */
    bool holds(double value) const;

    /** Canonical text form, e.g. "total_power<0.5". */
    std::string text() const;

    /**
     * Parse "metric<bound" / "metric>=bound" / ... text. The metric
     * must be registered, the operator one of the six forms, and the
     * bound a finite double — each failure is fatal with `context`
     * (e.g. "--filter") and the offending input in the message.
     */
    static ConstraintClause parse(const std::string &text,
                                  const std::string &context = "");

    JsonValue toJson() const;
    /** Accepts the object form or a text-form JSON string. */
    static ConstraintClause fromJson(const JsonValue &doc,
                                     const std::string &context = "");
};

/** An ANDed set of clauses. */
class ConstraintSet
{
  public:
    ConstraintSet() = default;

    /** Append a clause (declared order is preserved for
     *  serialization; evaluation is cheapest-first). */
    void add(ConstraintClause clause);
    /** Parse-and-append a text clause. */
    void add(const std::string &text, const std::string &context = "");

    bool empty() const { return clauses_.empty(); }
    std::size_t size() const { return clauses_.size(); }
    /** Clauses in declared order. */
    const std::vector<ConstraintClause> &clauses() const
    {
        return clauses_;
    }

    /** True iff every clause holds (vacuously true when empty). */
    bool satisfied(const EvalResult &result) const;

    /** Keep only the rows satisfying every clause (order
     *  preserved). */
    std::vector<EvalResult>
    filter(const std::vector<EvalResult> &results) const;

    /** Serialize as a JSON array of clause objects. */
    JsonValue toJson() const;
    /** Parse a JSON array of clause objects / text strings; fatal
     *  (with `context`) on anything else, including the removed
     *  fixed-field object form ({"max_power_w": ...}). */
    static ConstraintSet fromJson(const JsonValue &doc,
                                  const std::string &context = "");

  private:
    std::vector<ConstraintClause> clauses_;  ///< declared order
    /**
     * Evaluation plan: (clause index, resolved metric) sorted by
     * metric cost (stable), so satisfied() rejects on cheap clauses
     * before computing derived metrics — with no registry lookups on
     * the per-row path. Metric pointers stay valid for the process
     * lifetime (the registry is a never-destroyed singleton whose map
     * nodes are stable).
     */
    std::vector<std::pair<std::size_t, const Metric *>> evalOrder_;
};

} // namespace metrics
} // namespace nvmexp

#endif // NVMEXP_METRICS_CONSTRAINTS_HH
