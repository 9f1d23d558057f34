/**
 * @file
 * Pluggable workload subsystem: the application level of the
 * configuration stack as a uniform abstraction.
 *
 * A Workload converts a validated parameter set into the
 * TrafficPattern(s) the evaluation engine consumes. Implementations
 * register themselves in the process-wide WorkloadRegistry under a
 * string key, which makes every traffic source — the legacy cachesim
 * LLC, DNN inference, and graph-kernel families as well as new
 * scenario generators — addressable from JSON configs
 * ({"workloads": [{"name": ...}]}), the CLI, and the study drivers
 * without per-family glue. Adding a workload is one ~100-line
 * translation unit: implement the interface, register it, done.
 */

#ifndef NVMEXP_WORKLOAD_WORKLOAD_HH
#define NVMEXP_WORKLOAD_WORKLOAD_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/traffic.hh"
#include "util/json.hh"

namespace nvmexp {
namespace workload {

/** Value kinds a workload parameter can take. */
enum class ParamKind { Number, String, Bool, Object };

/** Human-readable kind name ("number", "string", ...). */
const char *paramKindName(ParamKind kind);

/**
 * Declaration of one workload parameter: key, kind, default, and the
 * validation bounds enforced before a workload ever sees the value.
 */
struct ParamSpec
{
    std::string key;
    ParamKind kind = ParamKind::Number;
    std::string description;
    bool required = false;

    /** Defaults (by kind) when the spec omits the key. */
    double numberDefault = 0.0;
    std::string stringDefault;
    bool boolDefault = false;

    /** Inclusive numeric bounds; NaN-free configs only. */
    bool hasMin = false;
    double minValue = 0.0;
    bool hasMax = false;
    double maxValue = 0.0;

    /** Allowed values for String params; empty = free-form. */
    std::vector<std::string> choices;

    /** Fluent builders keep schema definitions compact. */
    static ParamSpec number(std::string key, double dflt,
                            std::string description);
    static ParamSpec string(std::string key, std::string dflt,
                            std::string description);
    static ParamSpec boolean(std::string key, bool dflt,
                             std::string description);
    static ParamSpec object(std::string key, std::string description);
    ParamSpec &min(double value);
    ParamSpec &max(double value);
    ParamSpec &oneOf(std::vector<std::string> values);
    ParamSpec &mandatory();
};

/**
 * A validated parameter set: every key checked against the schema
 * (unknown keys, kind mismatches, out-of-range numbers, and
 * out-of-vocabulary strings are fatal with the workload name and the
 * offending key in the message), defaults filled in.
 */
class Params
{
  public:
    /** Validate `spec` (a JSON object; the "name" key is reserved for
     *  registry dispatch and ignored here) against `schema`. */
    static Params fromJson(const std::string &workloadName,
                           const JsonValue &spec,
                           const std::vector<ParamSpec> &schema);

    double number(const std::string &key) const;
    const std::string &str(const std::string &key) const;
    bool flag(const std::string &key) const;
    /** Object-kind parameter (e.g. a nested workload spec). */
    const JsonValue &object(const std::string &key) const;
    /** True when the spec provided the key explicitly. */
    bool provided(const std::string &key) const;

  private:
    std::string workload_;
    std::map<std::string, JsonValue> values_;
    std::map<std::string, bool> explicit_;

    const JsonValue &lookup(const std::string &key) const;
};

/** Cross-cutting context a generator may need beyond its params. */
struct TrafficContext
{
    int wordBits = 512;  ///< array access width of the target sweep
};

/** One pluggable traffic source. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Registry key ("llc", "dnn", "graph", "kv-store", ...). */
    virtual std::string name() const = 0;
    /** One-line summary for --list-workloads and error messages. */
    virtual std::string description() const = 0;
    /** Parameter schema; validated before generateTraffic runs. */
    virtual std::vector<ParamSpec> schema() const = 0;

    /** Produce the traffic pattern(s) this parameterization implies. */
    virtual std::vector<TrafficPattern>
    generateTraffic(const Params &params,
                    const TrafficContext &context) const = 0;

    /**
     * Split a validated spec into parts that generate independently
     * and whose patterns, concatenated in order, are exactly the
     * spec's own: expandWorkloads runs the parts in parallel. The
     * default is one part, the spec itself.
     */
    virtual std::vector<JsonValue> split(const JsonValue &spec,
                                         const Params &params) const;

    /** Validate a raw JSON spec against schema() and generate. */
    std::vector<TrafficPattern>
    generateFromJson(const JsonValue &spec,
                     const TrafficContext &context) const;
};

/**
 * Process-wide string-keyed workload registry. Built-in workloads are
 * registered on first access; additional workloads may be added at any
 * time (tests and downstream embedders plug in their own).
 */
class WorkloadRegistry
{
  public:
    /** The singleton, with built-ins registered. */
    static WorkloadRegistry &instance();

    /** Register a workload; duplicate names are fatal. */
    void add(std::unique_ptr<Workload> workload);

    /** @return the workload or nullptr when unknown. */
    const Workload *find(const std::string &name) const;

    /** @return the workload; fatal with the known-name list when
     *  unknown. */
    const Workload &require(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    WorkloadRegistry() = default;

    std::map<std::string, std::unique_ptr<Workload>> workloads_;
};

/**
 * Expand one JSON workload spec — {"name": "<registry key>", ...params}
 * — into traffic patterns via the registry. The entry point used by
 * the sweep engine, the config front-end, and the study drivers.
 */
std::vector<TrafficPattern>
trafficFromWorkloadJson(const JsonValue &spec,
                        const TrafficContext &context);

/**
 * Expand a list of specs, concatenating their patterns in spec order.
 * Every spec is validated first, in order, on the calling thread (the
 * first bad one fails as a serial expansion would, under the caller's
 * ScopedFatalThrows too); then each spec's split() parts are generated
 * on up to `jobs` threads (<=0 = all hardware threads) into indexed
 * slots. The patterns are the same for every job count.
 */
std::vector<TrafficPattern>
expandWorkloads(const std::vector<JsonValue> &specs,
                const TrafficContext &context, int jobs);

/**
 * Validate a spec (name known, parameters well-formed) without
 * generating traffic — the cheap eager check config loading performs
 * so bad studies fail before any simulation runs. Fatal on errors.
 * Nested specs (the intermittent wrapper's "inner") are validated
 * recursively.
 */
void validateWorkloadJson(const JsonValue &spec);

} // namespace workload
} // namespace nvmexp

#endif // NVMEXP_WORKLOAD_WORKLOAD_HH
