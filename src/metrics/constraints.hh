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
 * query.json (whose field table, in store/result_store.cc, reads and
 * writes the JSON form), or a study driver. A set only holds its
 * clauses, in declared order; rows are selected by the refine engine
 * (store::selectRows), which reads each clause's metric as a column
 * and keeps a row when every clause holds() for its value.
 */

#ifndef NVMEXP_METRICS_CONSTRAINTS_HH
#define NVMEXP_METRICS_CONSTRAINTS_HH

#include <cstddef>
#include <string>
#include <vector>

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

    /** Apply the comparison to the metric's value for one row (IEEE
     *  semantics: a NaN value fails every operator but !=). */
    bool holds(double value) const;

    /** Canonical text form, e.g. "total_power<0.5". */
    std::string text() const;

    /**
     * Parse "metric<bound" / "metric>=bound" / ... text. The metric
     * must be registered, the operator one of the six forms, and the
     * bound a number other than NaN (Infinity and -Infinity bound too,
     * e.g. "lifetime_sec>=Infinity") — each failure is fatal with
     * `context` (e.g. "--filter") and the offending input in the
     * message.
     */
    static ConstraintClause parse(const std::string &text,
                                  const std::string &context = "");
};

/** An ANDed set of clauses. */
class ConstraintSet
{
  public:
    ConstraintSet() = default;

    /** Append a clause (its metric must be registered). */
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

  private:
    std::vector<ConstraintClause> clauses_;  ///< declared order
};

} // namespace metrics
} // namespace nvmexp

#endif // NVMEXP_METRICS_CONSTRAINTS_HH
