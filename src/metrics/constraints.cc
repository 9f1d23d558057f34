#include "metrics/constraints.hh"

#include <cmath>

#include "util/logging.hh"

namespace nvmexp {
namespace metrics {

namespace {

struct OpName
{
    const char *text;
    ConstraintOp op;
};

/** Two-character operators first: "<=" must not parse as "<" + "=". */
constexpr OpName kOpNames[] = {
    {"<=", ConstraintOp::LE}, {">=", ConstraintOp::GE},
    {"==", ConstraintOp::EQ}, {"!=", ConstraintOp::NE},
    {"<", ConstraintOp::LT},  {">", ConstraintOp::GT},
};

std::string
trim(const std::string &text)
{
    auto begin = text.find_first_not_of(" \t");
    auto end = text.find_last_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    return text.substr(begin, end - begin + 1);
}

std::string
withContext(const std::string &context)
{
    return context.empty() ? "constraint" : context + ": constraint";
}

} // namespace

const char *
constraintOpName(ConstraintOp op)
{
    switch (op) {
      case ConstraintOp::LT: return "<";
      case ConstraintOp::LE: return "<=";
      case ConstraintOp::GT: return ">";
      case ConstraintOp::GE: return ">=";
      case ConstraintOp::EQ: return "==";
      case ConstraintOp::NE: return "!=";
      default: panic("bad ConstraintOp ", (int)op);
    }
}

ConstraintOp
constraintOpFromName(const std::string &name, const std::string &context)
{
    for (const auto &entry : kOpNames)
        if (name == entry.text)
            return entry.op;
    fatal(withContext(context), ": operator '", name,
          "' unknown (expected <, <=, >, >=, ==, or !=)");
}

bool
ConstraintClause::holds(double value) const
{
    switch (op) {
      case ConstraintOp::LT: return value < bound;
      case ConstraintOp::LE: return value <= bound;
      case ConstraintOp::GT: return value > bound;
      case ConstraintOp::GE: return value >= bound;
      case ConstraintOp::EQ: return value == bound;
      case ConstraintOp::NE: return value != bound;
      default: panic("bad ConstraintOp ", (int)op);
    }
}

std::string
ConstraintClause::text() const
{
    return metric + constraintOpName(op) + JsonValue::formatNumber(bound);
}

ConstraintClause
ConstraintClause::parse(const std::string &input,
                        const std::string &context)
{
    std::string clause = trim(input);
    // Find the first operator character; longest form wins so
    // "lifetime_years>=3" splits at ">=", not ">" + "=3".
    std::size_t split = clause.find_first_of("<>=!");
    if (split == std::string::npos || split == 0) {
        fatal(withContext(context), " '", input,
              "' malformed (expected <metric><op><bound>, e.g. "
              "total_power<0.5)");
    }
    std::size_t opLen =
        (split + 1 < clause.size() && clause[split + 1] == '=') ? 2 : 1;

    ConstraintClause out;
    out.metric = trim(clause.substr(0, split));
    MetricRegistry::instance().require(out.metric, withContext(context));
    out.op = constraintOpFromName(clause.substr(split, opLen), context);

    // JsonValue::parseNumber, not strtod: strtod honors LC_NUMERIC, so
    // under a comma-decimal locale "total_power<0.5" would stop at the
    // '.' and fail while "0,5" would silently parse as 0.5. The shared
    // parse applies the JSON scanner's locale-independent rules.
    std::string boundText = trim(clause.substr(split + opLen));
    if (!JsonValue::parseNumber(boundText, out.bound) ||
        std::isnan(out.bound)) {
        fatal(withContext(context), " '", input, "': bound '",
              boundText, "' is not a number");
    }
    return out;
}

void
ConstraintSet::add(ConstraintClause clause)
{
    metrics::metric(clause.metric);  // unknown is fatal
    clauses_.push_back(std::move(clause));
}

void
ConstraintSet::add(const std::string &text, const std::string &context)
{
    add(ConstraintClause::parse(text, context));
}

} // namespace metrics
} // namespace nvmexp
