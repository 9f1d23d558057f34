#include "metrics/metric.hh"

#include <sstream>

#include "util/logging.hh"

namespace nvmexp {
namespace metrics {

const char *
directionName(Direction direction)
{
    return direction == Direction::Minimize ? "minimize" : "maximize";
}

namespace {

/** Builder for the common case: a metric defined on the row's
 *  ArrayResult, automatically lifted to EvalResult through `array`. */
Metric
arrayMetric(std::string name, std::string unit, std::string description,
            Direction direction,
            std::function<double(const ArrayResult &)> accessor)
{
    Metric m;
    m.name = std::move(name);
    m.unit = std::move(unit);
    m.description = std::move(description);
    m.direction = direction;
    m.array = accessor;
    m.eval = [accessor](const EvalResult &r) { return accessor(*r.array); };
    return m;
}

/** Builder for application-level metrics (need traffic). */
Metric
evalMetric(std::string name, std::string unit, std::string description,
           Direction direction,
           std::function<double(const EvalResult &)> accessor)
{
    Metric m;
    m.name = std::move(name);
    m.unit = std::move(unit);
    m.description = std::move(description);
    m.direction = direction;
    m.eval = std::move(accessor);
    return m;
}

void
registerBuiltins(MetricRegistry &registry)
{
    using D = Direction;

    // Application-level metrics of the evaluation engine.
    registry.add(evalMetric("total_power", "W",
        "total memory power (dynamic + leakage)", D::Minimize,
        [](const EvalResult &r) { return r.totalPower; }));
    registry.add(evalMetric("dynamic_power", "W",
        "dynamic power from read/write access energy", D::Minimize,
        [](const EvalResult &r) { return r.dynamicPower; }));
    registry.add(evalMetric("leakage_power", "W",
        "leakage power under this workload", D::Minimize,
        [](const EvalResult &r) { return r.leakagePower; }));
    registry.add(evalMetric("latency_load", "1",
        "aggregated access latency per second of execution "
        "(>1 slows the application)", D::Minimize,
        [](const EvalResult &r) { return r.latencyLoad; }));
    registry.add(evalMetric("slowdown", "1",
        "application slowdown factor, max(1, latency_load)",
        D::Minimize,
        [](const EvalResult &r) { return r.slowdown; }));
    registry.add(evalMetric("total_access_latency", "s",
        "aggregated access latency over the execution window",
        D::Minimize,
        [](const EvalResult &r) { return r.totalAccessLatency; }));
    registry.add(evalMetric("lifetime_sec", "s",
        "projected array lifetime under this write rate",
        D::Maximize,
        [](const EvalResult &r) { return r.lifetimeSec; }));
    registry.add(evalMetric("lifetime_years", "yr",
        "projected array lifetime in 365-day years", D::Maximize,
        [](const EvalResult &r) { return r.lifetimeYears(); }));
    registry.add(evalMetric("meets_read_bw", "bool",
        "1 when the array sustains the read demand", D::Maximize,
        [](const EvalResult &r) {
            return r.meetsReadBandwidth ? 1.0 : 0.0;
        }));
    registry.add(evalMetric("meets_write_bw", "bool",
        "1 when the array sustains the write demand", D::Maximize,
        [](const EvalResult &r) {
            return r.meetsWriteBandwidth ? 1.0 : 0.0;
        }));
    registry.add(evalMetric("viable", "bool",
        "1 when the memory serves the workload at full speed",
        D::Maximize,
        [](const EvalResult &r) { return r.viable() ? 1.0 : 0.0; }));

    // Reliability metrics: annotated onto every EvalResult by the
    // sweep engine from its ReliabilitySpec (scheme "none", no
    // scrubbing, for sweeps without a reliability axis), so they are
    // always resolvable in --filter/--pareto/--top and store queries.
    registry.add(evalMetric("raw_ber", "1",
        "raw per-bit error rate of the cell's fault model",
        D::Minimize,
        [](const EvalResult &r) { return r.reliability.rawBer; }));
    registry.add(evalMetric("scrubbed_ber", "1",
        "per-bit error probability at the end of a scrub interval "
        "(raw BER + retention drift)", D::Minimize,
        [](const EvalResult &r) { return r.reliability.scrubbedBer; }));
    registry.add(evalMetric("uncorrectable_word_rate", "1",
        "probability a codeword exceeds the ECC scheme's correction "
        "strength", D::Minimize,
        [](const EvalResult &r) {
            return r.reliability.uncorrectableWordRate;
        }));
    registry.add(evalMetric("uncorrectable_image_rate", "1",
        "probability any codeword of the full array is uncorrectable",
        D::Minimize,
        [](const EvalResult &r) {
            return r.reliability.uncorrectableImageRate;
        }));
    registry.add(evalMetric("ecc_overhead", "1",
        "ECC storage overhead: stored bits / data bits", D::Minimize,
        [](const EvalResult &r) { return r.reliability.eccOverhead; }));
    registry.add(evalMetric("effective_capacity_mib", "MiB",
        "data capacity after ECC code overhead", D::Maximize,
        [](const EvalResult &r) {
            return r.array->capacityBytes / r.reliability.eccOverhead /
                (1024.0 * 1024.0);
        }));
    registry.add(evalMetric("effective_density_mb_per_mm2", "Mb/mm^2",
        "storage density after ECC code overhead", D::Maximize,
        [](const EvalResult &r) {
            return r.array->densityMbPerMm2() /
                r.reliability.eccOverhead;
        }));

    // Array-characterization metrics, lifted through `array`.
    registry.add(arrayMetric("read_latency", "s",
        "full read access latency", D::Minimize,
        [](const ArrayResult &a) { return a.readLatency; }));
    registry.add(arrayMetric("write_latency", "s",
        "full write access latency", D::Minimize,
        [](const ArrayResult &a) { return a.writeLatency; }));
    registry.add(arrayMetric("read_energy", "J",
        "energy per word read", D::Minimize,
        [](const ArrayResult &a) { return a.readEnergy; }));
    registry.add(arrayMetric("write_energy", "J",
        "energy per word write", D::Minimize,
        [](const ArrayResult &a) { return a.writeEnergy; }));
    registry.add(arrayMetric("leakage", "W",
        "whole-array leakage power", D::Minimize,
        [](const ArrayResult &a) { return a.leakage; }));
    registry.add(arrayMetric("area_m2", "m^2",
        "whole-array silicon area (SI; the constraint adapter's "
        "unit)", D::Minimize,
        [](const ArrayResult &a) { return a.areaM2; }));
    registry.add(arrayMetric("area_mm2", "mm^2",
        "whole-array silicon area", D::Minimize,
        [](const ArrayResult &a) { return a.areaM2 * 1e6; }));
    registry.add(arrayMetric("area_efficiency", "1",
        "cell area / total area", D::Maximize,
        [](const ArrayResult &a) { return a.areaEfficiency; }));
    registry.add(arrayMetric("read_bandwidth", "B/s",
        "peak deliverable read bandwidth", D::Maximize,
        [](const ArrayResult &a) { return a.readBandwidth; }));
    registry.add(arrayMetric("write_bandwidth", "B/s",
        "peak deliverable write bandwidth", D::Maximize,
        [](const ArrayResult &a) { return a.writeBandwidth; }));
    registry.add(arrayMetric("density_mb_per_mm2", "Mb/mm^2",
        "storage density", D::Maximize,
        [](const ArrayResult &a) { return a.densityMbPerMm2(); }));
    registry.add(arrayMetric("read_edp", "J*s",
        "read energy-delay product", D::Minimize,
        [](const ArrayResult &a) {
            return a.metric(OptTarget::ReadEDP);
        }));
    registry.add(arrayMetric("write_edp", "J*s",
        "write energy-delay product", D::Minimize,
        [](const ArrayResult &a) {
            return a.metric(OptTarget::WriteEDP);
        }));
    registry.add(arrayMetric("read_energy_per_bit", "J/bit",
        "read energy per bit", D::Minimize,
        [](const ArrayResult &a) { return a.readEnergyPerBit(); }));
    registry.add(arrayMetric("write_energy_per_bit", "J/bit",
        "write energy per bit", D::Minimize,
        [](const ArrayResult &a) { return a.writeEnergyPerBit(); }));
    registry.add(arrayMetric("capacity_mib", "MiB",
        "array capacity", D::Maximize,
        [](const ArrayResult &a) {
            return a.capacityBytes / (1024.0 * 1024.0);
        }));
}

} // namespace

MetricRegistry &
MetricRegistry::instance()
{
    static MetricRegistry *const registry = [] {
        auto *r = new MetricRegistry();
        registerBuiltins(*r);
        return r;
    }();
    return *registry;
}

void
MetricRegistry::add(Metric metric)
{
    if (metric.name.empty())
        fatal("metric registry: metric with empty name (registration #",
              metrics_.size(), ")");
    if (!metric.eval)
        fatal("metric '", metric.name, "': missing eval accessor");
    auto [it, inserted] =
        metrics_.emplace(metric.name, std::move(metric));
    if (!inserted)
        fatal("metric '", it->first, "' registered twice");
}

const Metric *
MetricRegistry::find(const std::string &name) const
{
    auto it = metrics_.find(name);
    return it == metrics_.end() ? nullptr : &it->second;
}

const Metric &
MetricRegistry::require(const std::string &name,
                        const std::string &context) const
{
    const Metric *m = find(name);
    if (!m) {
        std::ostringstream known;
        for (const auto &entry : names())
            known << " " << entry;
        fatal(context.empty() ? "metric" : context + ": metric", " '",
              name, "' unknown (known metrics:", known.str(), ")");
    }
    return *m;
}

std::vector<std::string>
MetricRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(metrics_.size());
    for (const auto &[name, m] : metrics_)
        out.push_back(name);
    return out;  // std::map iteration is already sorted
}

const Metric &
metric(const std::string &name)
{
    return MetricRegistry::instance().require(name);
}

} // namespace metrics
} // namespace nvmexp
