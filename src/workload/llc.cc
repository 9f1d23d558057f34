/**
 * @file
 * "llc" workload: the cachesim family as a registry plugin. Drives the
 * three-level cache hierarchy with a SPEC-like synthetic benchmark (or
 * the whole suite) and emits the LLC traffic the paper's Fig. 9 study
 * feeds into the sweep.
 */

#include "cachesim/streams.hh"
#include "workload/builtin.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace workload {

namespace {

class LlcWorkload final : public Workload
{
  public:
    std::string name() const override { return "llc"; }

    std::string
    description() const override
    {
        return "SPEC-like LLC traffic from the trace-driven cache "
               "hierarchy";
    }

    std::vector<ParamSpec>
    schema() const override
    {
        return {
            ParamSpec::string("benchmark", "suite",
                              "profile name, or \"suite\" for all "
                              "built-in profiles"),
            ParamSpec::number("instructions", 20e6,
                              "instructions to simulate")
                .min(1e3).max(1e10),
            ParamSpec::number("warmup", 5e6,
                              "unrecorded warmup instructions")
                .min(0.0).max(1e10),
            ParamSpec::number("llc_mib", 16.0, "LLC capacity [MiB]")
                .min(0.25).max(65536.0),
        };
    }

    /** A suite splits into one part per profile, in suite order: each
     *  profile simulates on its own hierarchy and seeds. */
    std::vector<Params>
    split(const Params &params) const override
    {
        if (params.str("benchmark") != "suite")
            return {params};
        std::vector<Params> parts;
        for (const auto &profile : specLikeSuite()) {
            parts.push_back(params);
            parts.back().set("benchmark", profile.name);
        }
        return parts;
    }

    std::vector<TrafficPattern>
    generateTraffic(const Params &params,
                    const TrafficContext &context) const override
    {
        (void)context;  // rates come from the simulated hierarchy
        Hierarchy::Config hconfig;
        hconfig.llcBytes = (std::size_t)(params.number("llc_mib") *
                                         1024.0 * 1024.0);
        auto instructions = (std::uint64_t)params.number("instructions");
        auto warmup = (std::uint64_t)params.number("warmup");

        std::vector<const BenchmarkProfile *> profiles;
        if (params.str("benchmark") == "suite") {
            for (const auto &profile : specLikeSuite())
                profiles.push_back(&profile);
        } else {
            profiles.push_back(&profileByName(params.str("benchmark")));
        }

        std::vector<TrafficPattern> patterns;
        for (const BenchmarkProfile *profile : profiles) {
            LlcTraffic traffic = runBenchmark(*profile, instructions,
                                              warmup, hconfig);
            patterns.push_back(llcTrafficPattern(traffic));
        }
        return patterns;
    }
};

} // namespace

void
registerLlcWorkload(WorkloadRegistry &registry)
{
    registry.add(std::make_unique<LlcWorkload>());
}

} // namespace workload
} // namespace nvmexp
