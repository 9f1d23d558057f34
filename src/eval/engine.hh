/**
 * @file
 * Analytical evaluation engine (paper Sec. II-B).
 *
 * Combines an array characterization (src/nvsim) with application
 * traffic (src/eval/traffic.hh) to produce the application-level
 * metrics the paper's case studies plot: total memory power, aggregate
 * access latency (the long-pole, bandwidth-driven performance model),
 * projected memory lifetime, and energy-per-event for intermittent
 * operation.
 */

#ifndef NVMEXP_EVAL_ENGINE_HH
#define NVMEXP_EVAL_ENGINE_HH

#include <limits>
#include <memory>

#include "eval/traffic.hh"
#include "nvsim/array_model.hh"
#include "reliability/reliability.hh"

namespace nvmexp {

/**
 * Application-level metrics for (array, traffic).
 *
 * A row refers to its array and traffic through shared, immutable
 * handles: every row of a sweep that evaluates the same characterized
 * array (or the same traffic pattern) points at one copy of it, so a
 * row costs two pointers instead of a copy of each struct. Nothing
 * changes a handle's pointee in place; changing a row's array or
 * traffic means building a new value and a new handle for it. A
 * default-constructed row holds null handles; every row that the
 * engine, the store readers and the query paths hand out holds both.
 */
struct EvalResult
{
    std::shared_ptr<const ArrayResult> array;
    std::shared_ptr<const TrafficPattern> traffic;

    double dynamicPower = 0.0;   ///< W from read/write access energy
    double leakagePower = 0.0;   ///< W
    double totalPower = 0.0;     ///< W

    /**
     * Long-pole model: seconds of aggregated access latency per second
     * of workload execution. Above 1.0 the memory slows the
     * application down by this factor (paper Sec. II-B).
     */
    double latencyLoad = 0.0;
    double slowdown = 1.0;       ///< max(1, latencyLoad)

    /** Aggregated access latency over the execution window [s]. */
    double totalAccessLatency = 0.0;

    bool meetsReadBandwidth = true;
    bool meetsWriteBandwidth = true;

    /**
     * Reliability numbers for this configuration under the sweep's
     * ReliabilitySpec (scheme "none", no scrubbing, when the sweep
     * has no reliability axis). Annotated by the sweep engine —
     * evaluate() itself leaves the defaults, since reliability is a
     * property of (array, spec), not of traffic.
     */
    reliability::ReliabilityResult reliability;

    /** Projected array lifetime under this write rate [s];
     *  +inf for unlimited-endurance cells or zero write traffic. */
    double lifetimeSec = std::numeric_limits<double>::infinity();

    /** @return lifetime in years (365-day years). */
    double lifetimeYears() const { return lifetimeSec / (365.0 * 86400.0); }

    /** Memory can serve this workload at full speed. */
    bool viable() const
    {
        return slowdown <= 1.0 + 1e-12 && meetsReadBandwidth &&
            meetsWriteBandwidth;
    }
};

/**
 * Evaluate one array against one traffic pattern; the row shares the
 * two handles.
 *
 * @param array optimized array design from ArrayDesigner
 * @param traffic workload traffic (word-access rates for
 *     array->wordBits)
 */
EvalResult evaluate(std::shared_ptr<const ArrayResult> array,
                    std::shared_ptr<const TrafficPattern> traffic);

/** evaluate() on handles to copies of `array` and `traffic`. */
EvalResult evaluate(const ArrayResult &array,
                    const TrafficPattern &traffic);

/**
 * Intermittent-operation scenario (paper Sec. IV-A2): the system wakes
 * up per inference event, performs the event's accesses, and powers
 * off. Non-volatile arrays retain state; volatile arrays must either
 * stay powered (leak) or restore contents from off-chip DRAM on wake.
 */
struct IntermittentConfig
{
    double eventsPerDay = 86400.0;   ///< wake-ups per day
    double readsPerEvent = 0.0;      ///< word reads per event
    double writesPerEvent = 0.0;     ///< word writes per event
    double computeTimePerEvent = 0.0;///< s the array stays powered/event
    /**
     * Bytes restored from DRAM on each wake-up when the array is
     * volatile (e.g., all DNN weights).
     */
    double restoreBytesOnWake = 0.0;
    /** Off-chip restore energy per byte [J/B] (DRAM access + link). */
    double restoreEnergyPerByte = 50e-12;
    /** Off-chip restore bandwidth [B/s] for wake-up latency. */
    double restoreBandwidth = 10e9;
    /**
     * Residual sleep leakage of a power-gated non-volatile macro as a
     * fraction of its active leakage (retention keepers, always-on
     * rails). Volatile arrays instead choose the cheaper of staying
     * fully powered or restoring from DRAM on every wake.
     */
    double sleepLeakFraction = 0.15;
};

/** Energy and latency of one intermittent event. */
struct IntermittentResult
{
    double energyPerEvent = 0.0;   ///< J, incl. restore for volatile
    double standbyEnergyPerDay = 0.0;  ///< J of sleep/retention leakage
    double energyPerDay = 0.0;     ///< J, events + standby
    double wakeLatency = 0.0;      ///< s before the event can compute
    double eventLatency = 0.0;     ///< s of aggregated access latency
    /** Lifetime under the daily write load [s]; +inf when nothing
     *  wears the array (unlimited endurance or no writes). */
    double lifetimeSec = std::numeric_limits<double>::infinity();
    bool keptPowered = false;      ///< volatile array stayed powered
    /**
     * Non-volatile retention covers the powered-off interval between
     * wake-ups (always true for powered/restored volatile arrays).
     */
    bool retentionOk = true;
};

/** Evaluate an intermittent use case on an array. */
IntermittentResult evaluateIntermittent(const ArrayResult &array,
                                        const IntermittentConfig &config);

/**
 * Write-buffer co-design model (paper Sec. V-D): a small, faster
 * front buffer masks a fraction of the eNVM write latency and absorbs
 * a fraction of the write traffic via in-place updates.
 */
struct WriteBufferConfig
{
    double latencyMaskFraction = 0.0;   ///< [0,1] of write latency hidden
    double trafficReduction = 0.0;      ///< [0,1] of writes absorbed
};

/**
 * Evaluate (array, traffic) as if fronted by a write buffer: write
 * latency seen by the system is (1-mask)*writeLatency and write
 * traffic reaching the eNVM is (1-reduction)*writes.
 */
EvalResult evaluateWithWriteBuffer(const ArrayResult &array,
                                   const TrafficPattern &traffic,
                                   const WriteBufferConfig &config);

} // namespace nvmexp

#endif // NVMEXP_EVAL_ENGINE_HH
