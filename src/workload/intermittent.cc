/**
 * @file
 * "intermittent" workload: an energy-harvesting duty-cycle wrapper
 * that modulates any inner workload's traffic with power-off
 * intervals (paper Sec. IV-A2's intermittent deployment, generalized
 * to arbitrary traffic sources).
 *
 * The inner workload is a nested registry spec, so any registered
 * workload — including another wrapper — can be duty-cycled. Two
 * modes:
 *  - "catch-up": deadlines are preserved; while powered, the system
 *    runs 1/duty faster so each period's work still completes (the
 *    array sees compressed, burstier rates).
 *  - "throttle": work stretches; the array sees the wall-clock
 *    average, duty x the inner rates.
 * Wake/sleep state transfer (restore reads on power-up, checkpoint
 * writes before power-down) is amortized into the rates.
 */

#include "workload/builtin.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace workload {

namespace {

class IntermittentWorkload final : public Workload
{
  public:
    std::string name() const override { return "intermittent"; }

    std::string
    description() const override
    {
        return "duty-cycle wrapper: modulates an inner workload with "
               "power-off intervals";
    }

    std::vector<ParamSpec>
    schema() const override
    {
        return {
            ParamSpec::object("inner",
                              "nested workload spec ({\"name\": ...}) "
                              "to modulate")
                .mandatory(),
            ParamSpec::number("duty_cycle", 0.5,
                              "fraction of each period with power")
                .min(1e-6).max(1.0),
            ParamSpec::number("period_sec", 1.0,
                              "power on/off cycle period [s]")
                .min(1e-9).max(1e9),
            ParamSpec::number("restore_mib", 0.0,
                              "state read back on each wake [MiB]")
                .min(0.0).max(1e5),
            ParamSpec::number("checkpoint_mib", 0.0,
                              "state written before each power-down "
                              "[MiB]")
                .min(0.0).max(1e5),
            ParamSpec::string("mode", "catch-up",
                              "rate modulation mode")
                .oneOf({"catch-up", "throttle"}),
            ParamSpec::string("pattern_name", "int",
                              "prefix for the emitted pattern names"),
        };
    }

    std::vector<TrafficPattern>
    generateTraffic(const Params &params,
                    const TrafficContext &context) const override
    {
        auto inner = params.object("inner").generate(context);

        const double wordBytes = (double)context.wordBits / 8.0;
        const double duty = params.number("duty_cycle");
        const double period = params.number("period_sec");
        const double restoreWords =
            params.number("restore_mib") * 1024.0 * 1024.0 / wordBytes;
        const double checkpointWords = params.number("checkpoint_mib") *
            1024.0 * 1024.0 / wordBytes;
        const bool catchUp = params.str("mode") == "catch-up";
        const std::string prefix = params.str("pattern_name") + "-d" +
            JsonValue::formatNumber(duty) +
            (catchUp ? "" : "-thr") + "/";

        std::vector<TrafficPattern> patterns;
        for (const auto &p : inner) {
            TrafficPattern out;
            out.name = prefix + p.name;
            if (catchUp) {
                // Rates as the array sees them while powered: the full
                // period's work plus one wake/sleep transfer happen
                // inside the on-time duty*period.
                out.readsPerSec = p.readsPerSec / duty +
                    restoreWords / (duty * period);
                out.writesPerSec = p.writesPerSec / duty +
                    checkpointWords / (duty * period);
                out.execTime = p.execTime * duty;
            } else {
                // Wall-clock average: the workload only progresses
                // while powered, transfers amortize over the period.
                out.readsPerSec =
                    p.readsPerSec * duty + restoreWords / period;
                out.writesPerSec =
                    p.writesPerSec * duty + checkpointWords / period;
                out.execTime = p.execTime / duty;
            }
            patterns.push_back(out);
        }
        return patterns;
    }
};

} // namespace

void
registerIntermittentWorkload(WorkloadRegistry &registry)
{
    registry.add(std::make_unique<IntermittentWorkload>());
}

} // namespace workload
} // namespace nvmexp
