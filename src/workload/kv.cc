/**
 * @file
 * "kv-store" workload: Zipfian get/put traffic against an eNVM-backed
 * key-value store.
 *
 * The store keeps records (key + value) in the array; a DRAM front
 * cache of configurable size absorbs GETs to the hottest keys. Key
 * popularity follows a Zipf(s) law, so the cache hit rate is the
 * analytical mass of the top-k keys, H_k(s)/H_N(s) — no sampling, the
 * pattern is exactly reproducible. PUTs are written through (index
 * word + record words reach the array); GET misses read the index and
 * the record.
 */

#include <algorithm>
#include <cmath>

#include "workload/builtin.hh"
#include "workload/workload.hh"

namespace nvmexp {
namespace workload {

namespace {

/** Terms of a Zipf normalizer that are summed exactly. */
constexpr double kExactTerms = 65536.0;

/**
 * Generalized harmonic number H_n(s) = sum_{i=1..n} i^-s given `head`,
 * the exact sum of its first min(n, kExactTerms) terms: a
 * midpoint-rule integral adds the tail, so billion-key stores stay
 * O(1)-ish while small stores are exact.
 */
double
zipfHarmonic(double n, double s, double head)
{
    if (n <= kExactTerms)
        return head;
    if (s == 1.0)
        return head + std::log((n + 0.5) / (kExactTerms + 0.5));
    return head +
        (std::pow(n + 0.5, 1.0 - s) - std::pow(kExactTerms + 0.5, 1.0 - s)) /
        (1.0 - s);
}

/** H_k(s) / H_n(s) for k <= n: one pass sums both heads, recording the
 *  shorter one on the way. */
double
zipfMass(double k, double n, double s)
{
    double sum = 0.0;
    double i = 1.0;
    for (; i <= std::min(k, kExactTerms); i += 1.0)
        sum += std::pow(i, -s);
    const double kHead = sum;
    for (; i <= std::min(n, kExactTerms); i += 1.0)
        sum += std::pow(i, -s);
    return zipfHarmonic(k, s, kHead) / zipfHarmonic(n, s, sum);
}

class KvStoreWorkload final : public Workload
{
  public:
    std::string name() const override { return "kv-store"; }

    std::string
    description() const override
    {
        return "Zipfian key-value get/put mix with a DRAM front cache "
               "(write-through)";
    }

    std::vector<ParamSpec>
    schema() const override
    {
        return {
            ParamSpec::number("ops_per_sec", 1e6,
                              "total get+put operations per second")
                .min(1.0).max(1e12),
            ParamSpec::number("get_fraction", 0.95,
                              "fraction of ops that are GETs")
                .min(0.0).max(1.0),
            ParamSpec::number("zipf_skew", 0.99,
                              "Zipf popularity exponent s")
                .min(0.0).max(10.0),
            ParamSpec::number("key_count", 1e6, "distinct keys")
                .min(1.0).max(1e12),
            ParamSpec::number("value_bytes", 128.0, "value size [B]")
                .min(1.0).max(1e6),
            ParamSpec::number("key_bytes", 16.0, "key size [B]")
                .min(1.0).max(4096.0),
            ParamSpec::number("cache_mib", 16.0,
                              "DRAM front-cache capacity [MiB]; 0 "
                              "disables the cache")
                .min(0.0).max(1e6),
            ParamSpec::number("exec_time", 1.0,
                              "measurement window [s]")
                .min(1e-9).max(1e9),
            ParamSpec::string("pattern_name", "",
                              "override for the emitted pattern name"),
        };
    }

    std::vector<TrafficPattern>
    generateTraffic(const Params &params,
                    const TrafficContext &context) const override
    {
        const double wordBytes = (double)context.wordBits / 8.0;
        const double recordBytes =
            params.number("key_bytes") + params.number("value_bytes");
        const double recordWords = std::ceil(recordBytes / wordBytes);
        const double indexWords = 1.0;

        const double keys = params.number("key_count");
        const double skew = params.number("zipf_skew");
        const double cachedKeys = std::min(
            keys, std::floor(params.number("cache_mib") * 1024.0 *
                             1024.0 / recordBytes));
        const double hitRate =
            cachedKeys >= 1.0 ? zipfMass(cachedKeys, keys, skew) : 0.0;

        const double ops = params.number("ops_per_sec");
        const double gets = ops * params.number("get_fraction");
        const double puts = ops - gets;

        TrafficPattern pattern;
        pattern.name = params.str("pattern_name");
        if (pattern.name.empty()) {
            pattern.name = "kv-s" + JsonValue::formatNumber(skew) +
                "-g" +
                JsonValue::formatNumber(params.number("get_fraction"));
        }
        pattern.readsPerSec =
            gets * (1.0 - hitRate) * (indexWords + recordWords);
        pattern.writesPerSec = puts * (indexWords + recordWords);
        pattern.execTime = params.number("exec_time");
        return {pattern};
    }
};

} // namespace

void
registerKvStoreWorkload(WorkloadRegistry &registry)
{
    registry.add(std::make_unique<KvStoreWorkload>());
}

} // namespace workload
} // namespace nvmexp
