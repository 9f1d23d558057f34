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

/** The JSON kind a parameter of `kind` is given as. */
JsonValue::Kind
jsonKind(ParamKind kind)
{
    switch (kind) {
      case ParamKind::Number: return JsonValue::Kind::Number;
      case ParamKind::String: return JsonValue::Kind::String;
      case ParamKind::Bool: return JsonValue::Kind::Bool;
      case ParamKind::Object: return JsonValue::Kind::Object;
    }
    return JsonValue::Kind::Null;
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
Params::read(JsonReader &r, const std::string &workloadName,
             const std::vector<ParamSpec> &schema)
{
    auto refuse = [&](const std::string &what) {
        r.reject("workload '" + workloadName + "': " + what);
    };
    if (r.peek() != JsonValue::Kind::Object)
        refuse("spec must be an object");

    Params params;
    params.workload_ = workloadName;
    bool named = false;
    std::string_view key;
    r.beginObject();
    while (r.nextMember(key)) {
        if (key == "name") { // read by WorkloadSpec::read
            if (named)
                r.fail("duplicate member 'name'");
            named = true;
            r.skip();
            continue;
        }
        // Unknown keys are refused: a typo'd parameter silently
        // falling back to its default is the worst possible sweep bug.
        auto p = std::find_if(
            schema.begin(), schema.end(),
            [&](const ParamSpec &spec) { return spec.key == key; });
        if (p == schema.end()) {
            std::vector<std::string> keys;
            for (const auto &spec : schema)
                keys.push_back(spec.key);
            refuse("unknown parameter '" + std::string(key) +
                   "' (known: " + joined(keys) + ")");
        }
        Value &value = params.values_[p->key];
        if (value.provided)
            r.fail("duplicate member '" + p->key + "'");
        value.provided = true;
        if (r.peek() != jsonKind(p->kind)) {
            refuse("parameter '" + p->key + "' must be a " +
                   paramKindName(p->kind));
        }
        switch (p->kind) {
          case ParamKind::Number: {
            double v = value.number = r.number();
            if (v != v)
                refuse("parameter '" + p->key + "' is NaN");
            if ((p->hasMin && v < p->minValue) ||
                (p->hasMax && v > p->maxValue)) {
                refuse("parameter '" + p->key + "' = " +
                       JsonValue::formatNumber(v) + " out of range [" +
                       (p->hasMin ? JsonValue::formatNumber(p->minValue)
                                  : std::string("-inf")) +
                       ", " +
                       (p->hasMax ? JsonValue::formatNumber(p->maxValue)
                                  : std::string("+inf")) +
                       "]");
            }
            break;
          }
          case ParamKind::String:
            value.string.assign(r.string());
            if (!p->choices.empty() &&
                std::find(p->choices.begin(), p->choices.end(),
                          value.string) == p->choices.end()) {
                refuse("parameter '" + p->key + "' = '" + value.string +
                       "' (expected one of: " + joined(p->choices) + ")");
            }
            break;
          case ParamKind::Bool:
            value.flag = r.boolean();
            break;
          case ParamKind::Object: {
            // A nested workload spec, validated here so a wrapper's
            // inner errors surface at load time too.
            JsonReader::PathStep step(r, p->key);
            value.object =
                std::make_shared<const WorkloadSpec>(WorkloadSpec::read(r));
            break;
          }
        }
    }

    for (const auto &p : schema) {
        Value &value = params.values_[p.key];
        if (value.provided)
            continue;
        if (p.required)
            refuse("missing required parameter '" + p.key + "'");
        value.number = p.numberDefault;
        value.string = p.stringDefault;
        value.flag = p.boolDefault;
    }
    return params;
}

const Params::Value &
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
    return lookup(key).number;
}

const std::string &
Params::str(const std::string &key) const
{
    return lookup(key).string;
}

bool
Params::flag(const std::string &key) const
{
    return lookup(key).flag;
}

const WorkloadSpec &
Params::object(const std::string &key) const
{
    const Value &value = lookup(key);
    if (!value.object) {
        panic("workload '", workload_, "': object parameter '", key,
              "' read but not given");
    }
    return *value.object;
}

bool
Params::provided(const std::string &key) const
{
    auto it = values_.find(key);
    return it != values_.end() && it->second.provided;
}

void
Params::set(const std::string &key, std::string value)
{
    Value &slot = values_[key];
    slot.string = std::move(value);
    slot.provided = true;
}

std::vector<Params>
Workload::split(const Params &params) const
{
    return {params};
}

WorkloadSpec
WorkloadSpec::read(JsonReader &r)
{
    // The "name" may come anywhere among the parameters: a bookmark
    // finds it, and the spec is then read once, against its schema.
    const char *const needsName = "workload spec needs a \"name\" key "
                                  "selecting a registered workload";
    if (r.peek() != JsonValue::Kind::Object)
        r.reject(needsName);
    JsonReader probe = r;
    std::string_view key;
    bool named = false;
    probe.beginObject();
    while (!named && probe.nextMember(key)) {
        named = key == "name";
        if (!named)
            probe.skip();
    }
    if (!named)
        r.reject(needsName);
    if (probe.peek() != JsonValue::Kind::String)
        probe.reject("workload spec \"name\" must be a string");
    std::string name(probe.string());
    WorkloadSpec spec;
    spec.workload = WorkloadRegistry::instance().find(name);
    if (!spec.workload) {
        probe.reject("unknown workload '" + name + "' (registered: " +
                     joined(WorkloadRegistry::instance().names()) + ")");
    }
    spec.params = Params::read(r, name, spec.workload->schema());
    return spec;
}

std::vector<TrafficPattern>
WorkloadSpec::generate(const TrafficContext &context) const
{
    auto patterns = workload->generateTraffic(params, context);
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

/** The spec of a whole document. */
WorkloadSpec
specOf(const JsonValue &doc)
{
    JsonReader r(doc.text());
    WorkloadSpec spec = WorkloadSpec::read(r);
    r.end();
    return spec;
}

} // namespace

std::vector<TrafficPattern>
trafficFromWorkloadJson(const JsonValue &spec,
                        const TrafficContext &context)
{
    return specOf(spec).generate(context);
}

void
validateWorkloadJson(const JsonValue &spec)
{
    specOf(spec);
}

std::vector<TrafficPattern>
expandWorkloads(const std::vector<JsonValue> &specs,
                const TrafficContext &context, int jobs)
{
    std::vector<WorkloadSpec> parts;
    for (const auto &doc : specs) {
        WorkloadSpec spec = specOf(doc);
        for (Params &params : spec.workload->split(spec.params))
            parts.push_back({spec.workload, std::move(params)});
    }

    std::vector<std::vector<TrafficPattern>> slots(parts.size());
    parallelFor(parts.size(), jobs, [&](std::size_t i) {
        slots[i] = parts[i].generate(context);
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
