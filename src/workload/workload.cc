#include "workload/workload.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/builtin.hh"

namespace nvmexp {
namespace workload {

const char *
paramKindName(ParamKind kind)
{
    switch (kind) {
      case ParamKind::Number: return "number";
      case ParamKind::String: return "string";
      case ParamKind::Bool: return "bool";
      case ParamKind::Object: return "object";
    }
    return "?";
}

namespace {

bool
kindMatches(ParamKind kind, const JsonValue &value)
{
    switch (kind) {
      case ParamKind::Number: return value.isNumber();
      case ParamKind::String: return value.isString();
      case ParamKind::Bool: return value.isBool();
      case ParamKind::Object: return value.isObject();
    }
    return false;
}

std::string
joined(const std::vector<std::string> &items)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < items.size(); ++i)
        out << (i ? ", " : "") << items[i];
    return out.str();
}

} // namespace

ParamSpec
ParamSpec::number(std::string key, double dflt, std::string description)
{
    ParamSpec spec;
    spec.key = std::move(key);
    spec.kind = ParamKind::Number;
    spec.numberDefault = dflt;
    spec.description = std::move(description);
    return spec;
}

ParamSpec
ParamSpec::string(std::string key, std::string dflt,
                  std::string description)
{
    ParamSpec spec;
    spec.key = std::move(key);
    spec.kind = ParamKind::String;
    spec.stringDefault = std::move(dflt);
    spec.description = std::move(description);
    return spec;
}

ParamSpec
ParamSpec::boolean(std::string key, bool dflt, std::string description)
{
    ParamSpec spec;
    spec.key = std::move(key);
    spec.kind = ParamKind::Bool;
    spec.boolDefault = dflt;
    spec.description = std::move(description);
    return spec;
}

ParamSpec
ParamSpec::object(std::string key, std::string description)
{
    ParamSpec spec;
    spec.key = std::move(key);
    spec.kind = ParamKind::Object;
    spec.description = std::move(description);
    return spec;
}

ParamSpec &
ParamSpec::min(double value)
{
    hasMin = true;
    minValue = value;
    return *this;
}

ParamSpec &
ParamSpec::max(double value)
{
    hasMax = true;
    maxValue = value;
    return *this;
}

ParamSpec &
ParamSpec::oneOf(std::vector<std::string> values)
{
    choices = std::move(values);
    return *this;
}

ParamSpec &
ParamSpec::mandatory()
{
    required = true;
    return *this;
}

Params
Params::fromJson(const std::string &workloadName, const JsonValue &spec,
                 const std::vector<ParamSpec> &schema)
{
    if (!spec.isObject())
        fatal("workload '", workloadName, "': spec must be an object");

    Params params;
    params.workload_ = workloadName;

    // Unknown keys are rejected up front: a typo'd parameter silently
    // falling back to its default is the worst possible sweep bug.
    for (const auto &key : spec.memberNames()) {
        if (key == "name")  // reserved for registry dispatch
            continue;
        bool known = std::any_of(
            schema.begin(), schema.end(),
            [&](const ParamSpec &p) { return p.key == key; });
        if (!known) {
            std::vector<std::string> keys;
            for (const auto &p : schema)
                keys.push_back(p.key);
            fatal("workload '", workloadName, "': unknown parameter '",
                  key, "' (accepted: ", joined(keys), ")");
        }
    }

    for (const auto &p : schema) {
        bool present = spec.has(p.key);
        if (!present && p.required) {
            fatal("workload '", workloadName,
                  "': missing required parameter '", p.key, "'");
        }
        JsonValue value;
        if (present) {
            value = spec.at(p.key);
            if (!kindMatches(p.kind, value)) {
                fatal("workload '", workloadName, "': parameter '",
                      p.key, "' must be a ", paramKindName(p.kind));
            }
        } else {
            switch (p.kind) {
              case ParamKind::Number:
                value = JsonValue::makeNumber(p.numberDefault);
                break;
              case ParamKind::String:
                value = JsonValue::makeString(p.stringDefault);
                break;
              case ParamKind::Bool:
                value = JsonValue::makeBool(p.boolDefault);
                break;
              case ParamKind::Object:
                value = JsonValue::makeObject();
                break;
            }
        }
        if (p.kind == ParamKind::Number) {
            double v = value.asNumber();
            if (v != v) {
                fatal("workload '", workloadName, "': parameter '",
                      p.key, "' is NaN");
            }
            if ((p.hasMin && v < p.minValue) ||
                (p.hasMax && v > p.maxValue)) {
                fatal("workload '", workloadName, "': parameter '",
                      p.key, "' = ", v, " out of range [",
                      p.hasMin ? JsonValue::formatNumber(p.minValue)
                               : std::string("-inf"),
                      ", ",
                      p.hasMax ? JsonValue::formatNumber(p.maxValue)
                               : std::string("+inf"),
                      "]");
            }
        }
        if (p.kind == ParamKind::String && !p.choices.empty()) {
            const std::string &v = value.asString();
            if (std::find(p.choices.begin(), p.choices.end(), v) ==
                p.choices.end()) {
                fatal("workload '", workloadName, "': parameter '",
                      p.key, "' = '", v, "' (expected one of: ",
                      joined(p.choices), ")");
            }
        }
        params.values_[p.key] = std::move(value);
        params.explicit_[p.key] = present;
    }
    return params;
}

const JsonValue &
Params::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        panic("workload '", workload_, "': parameter '", key,
              "' read but not declared in the schema");
    }
    return it->second;
}

double
Params::number(const std::string &key) const
{
    return lookup(key).asNumber();
}

const std::string &
Params::str(const std::string &key) const
{
    return lookup(key).asString();
}

bool
Params::flag(const std::string &key) const
{
    return lookup(key).asBool();
}

const JsonValue &
Params::object(const std::string &key) const
{
    return lookup(key);
}

bool
Params::provided(const std::string &key) const
{
    auto it = explicit_.find(key);
    return it != explicit_.end() && it->second;
}

std::vector<JsonValue>
Workload::split(const JsonValue &spec, const Params &) const
{
    return {spec};
}

std::vector<TrafficPattern>
Workload::generateFromJson(const JsonValue &spec,
                           const TrafficContext &context) const
{
    Params params = Params::fromJson(name(), spec, schema());
    auto patterns = generateTraffic(params, context);
    for (auto &pattern : patterns)
        pattern.validate();
    return patterns;
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry *const registry = [] {
        auto *r = new WorkloadRegistry;
        registerLlcWorkload(*r);
        registerDnnWorkload(*r);
        registerGraphWorkload(*r);
        registerKvStoreWorkload(*r);
        registerWalWorkload(*r);
        registerIntermittentWorkload(*r);
        return r;
    }();
    return *registry;
}

void
WorkloadRegistry::add(std::unique_ptr<Workload> workload)
{
    std::string key = workload->name();
    if (key.empty())
        fatal("workload registration: empty name (registration #",
              workloads_.size(), ")");
    auto [it, inserted] =
        workloads_.emplace(key, std::move(workload));
    (void)it;
    if (!inserted) {
        fatal("workload '", key,
              "' registered twice (duplicate registration rejected)");
    }
}

const Workload *
WorkloadRegistry::find(const std::string &name) const
{
    auto it = workloads_.find(name);
    return it == workloads_.end() ? nullptr : it->second.get();
}

const Workload &
WorkloadRegistry::require(const std::string &name) const
{
    const Workload *workload = find(name);
    if (!workload) {
        fatal("unknown workload '", name, "' (registered: ",
              joined(names()), ")");
    }
    return *workload;
}

std::vector<std::string>
WorkloadRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : workloads_) {
        (void)value;
        out.push_back(key);
    }
    return out;  // std::map iterates sorted
}

namespace {

/** The registered workload a spec names; fatal when it names none. */
const Workload &
workloadFor(const JsonValue &spec)
{
    if (!spec.isObject() || !spec.has("name"))
        fatal("workload spec needs a \"name\" key selecting a "
              "registered workload");
    return WorkloadRegistry::instance().require(
        spec.at("name").asString());
}

/** validateWorkloadJson's body, returning the spec's parameters. */
Params
validatedParams(const Workload &workload, const JsonValue &spec)
{
    auto schema = workload.schema();
    Params params = Params::fromJson(workload.name(), spec, schema);
    // Recurse into nested workload specs (object-kind parameters are
    // inner workloads) so a wrapper's inner errors surface at load
    // time too.
    for (const auto &p : schema) {
        if (p.kind == ParamKind::Object && params.provided(p.key))
            validateWorkloadJson(params.object(p.key));
    }
    return params;
}

} // namespace

std::vector<TrafficPattern>
trafficFromWorkloadJson(const JsonValue &spec,
                        const TrafficContext &context)
{
    return workloadFor(spec).generateFromJson(spec, context);
}

void
validateWorkloadJson(const JsonValue &spec)
{
    validatedParams(workloadFor(spec), spec);
}

std::vector<TrafficPattern>
expandWorkloads(const std::vector<JsonValue> &specs,
                const TrafficContext &context, int jobs)
{
    std::vector<JsonValue> parts;
    for (const auto &spec : specs) {
        const Workload &workload = workloadFor(spec);
        auto split = workload.split(spec, validatedParams(workload, spec));
        parts.insert(parts.end(), split.begin(), split.end());
    }

    std::vector<std::vector<TrafficPattern>> slots(parts.size());
    parallelFor(parts.size(), jobs, [&](std::size_t i) {
        slots[i] = trafficFromWorkloadJson(parts[i], context);
    });
    std::vector<TrafficPattern> patterns;
    for (auto &slot : slots) {
        patterns.insert(patterns.end(),
                        std::make_move_iterator(slot.begin()),
                        std::make_move_iterator(slot.end()));
    }
    return patterns;
}

} // namespace workload
} // namespace nvmexp
