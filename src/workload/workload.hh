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

/** Cross-cutting context a generator may need beyond its params. */
struct TrafficContext
{
    int wordBits = 512;  ///< array access width of the target sweep
};

struct WorkloadSpec;

/**
 * A validated parameter set: every key checked against the schema
 * (unknown keys, kind mismatches, out-of-range numbers, and
 * out-of-vocabulary strings are refused naming the workload and the
 * offending key), defaults filled in. Values are typed; an object
 * parameter holds its nested, validated spec.
 */
class Params
{
  public:
    /**
     * Decode the spec object at the reader against `schema`; its
     * "name" member, which selected the workload, is skipped. Every
     * refusal is JsonReader::reject()'s, so it names the document, the
     * line and column, and the member path.
     */
    static Params read(JsonReader &r, const std::string &workloadName,
                       const std::vector<ParamSpec> &schema);

    double number(const std::string &key) const;
    const std::string &str(const std::string &key) const;
    bool flag(const std::string &key) const;
    /** Object-kind parameter: the nested workload spec. */
    const WorkloadSpec &object(const std::string &key) const;
    /** True when the spec provided the key explicitly. */
    bool provided(const std::string &key) const;

    /** Set string parameter `key`, as if the spec gave it (a split()
     *  part's own value). */
    void set(const std::string &key, std::string value);

  private:
    struct Value
    {
        double number = 0.0;
        std::string string;
        bool flag = false;
        std::shared_ptr<const WorkloadSpec> object;
        bool provided = false;
    };

    const Value &lookup(const std::string &key) const;

    std::string workload_;
    std::map<std::string, Value> values_;
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
     * Split validated parameters into parts that generate
     * independently and whose patterns, concatenated in order, are
     * exactly the whole's: expandWorkloads runs the parts in parallel.
     * The default is one part, the parameters themselves.
     */
    virtual std::vector<Params> split(const Params &params) const;
};

/** A validated workload spec: the workload its "name" selects, and its
 *  parameters. */
struct WorkloadSpec
{
    const Workload *workload = nullptr;
    Params params;

    /** Decode the spec object at the reader: {"name": "<registry
     *  key>", ...params}, an unknown name refused naming the
     *  registered ones. */
    static WorkloadSpec read(JsonReader &r);

    /** The workload's patterns for these parameters, each validated. */
    std::vector<TrafficPattern>
    generate(const TrafficContext &context) const;
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
 * — into traffic patterns via the registry: WorkloadSpec::read over the
 * document, then generate().
 */
std::vector<TrafficPattern>
trafficFromWorkloadJson(const JsonValue &spec,
                        const TrafficContext &context);

/**
 * Expand a list of specs, concatenating their patterns in spec order.
 * Every spec is decoded first, in order, on the calling thread (the
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
 * generating traffic: WorkloadSpec::read over the document, which
 * validates nested specs (the intermittent wrapper's "inner") with
 * their wrapper. Fatal on errors. (A config decodes its specs straight
 * from its own reader, so their refusals name the config's file.)
 */
void validateWorkloadJson(const JsonValue &spec);

} // namespace workload
} // namespace nvmexp

#endif // NVMEXP_WORKLOAD_WORKLOAD_HH
