#include "eval/engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace nvmexp {

namespace {

/** Lifetime under ideal wear-leveling: every word wears evenly. */
double
lifetimeSeconds(const ArrayResult &array, double writesPerSec)
{
    if (writesPerSec <= 0.0)
        return std::numeric_limits<double>::infinity();
    double totalWrites = array.cell.endurance * array.words();
    return totalWrites / writesPerSec;
}

} // namespace

EvalResult
evaluate(std::shared_ptr<const ArrayResult> arrayHandle,
         std::shared_ptr<const TrafficPattern> trafficHandle)
{
    const ArrayResult &array = *arrayHandle;
    const TrafficPattern &traffic = *trafficHandle;
    traffic.validate();
    EvalResult r;

    r.dynamicPower = traffic.readsPerSec * array.readEnergy +
        traffic.writesPerSec * array.writeEnergy;
    r.leakagePower = array.leakage;
    r.totalPower = r.dynamicPower + r.leakagePower;

    // Long-pole, bandwidth-driven performance model: aggregate access
    // latency per second of execution, assuming bank-level overlap.
    double banks = std::max(1, array.org.banks);
    r.latencyLoad = (traffic.readsPerSec * array.readLatency +
                     traffic.writesPerSec * array.writeLatency) / banks;
    r.slowdown = std::max(1.0, r.latencyLoad);
    r.totalAccessLatency =
        traffic.readsPerExec() * array.readLatency +
        traffic.writesPerExec() * array.writeLatency;

    r.meetsReadBandwidth =
        traffic.readBytesPerSec(array.wordBits) <= array.readBandwidth;
    r.meetsWriteBandwidth =
        traffic.writeBytesPerSec(array.wordBits) <= array.writeBandwidth;

    r.lifetimeSec = lifetimeSeconds(array, traffic.writesPerSec);
    r.array = std::move(arrayHandle);
    r.traffic = std::move(trafficHandle);
    return r;
}

EvalResult
evaluate(const ArrayResult &array, const TrafficPattern &traffic)
{
    return evaluate(std::make_shared<const ArrayResult>(array),
                    std::make_shared<const TrafficPattern>(traffic));
}

IntermittentResult
evaluateIntermittent(const ArrayResult &array,
                     const IntermittentConfig &config)
{
    if (config.eventsPerDay <= 0.0)
        fatal("intermittent model needs a positive wake-up rate");
    if (config.readsPerEvent < 0.0 || config.writesPerEvent < 0.0)
        fatal("intermittent model: negative per-event access counts");

    IntermittentResult r;

    double accessEnergy = config.readsPerEvent * array.readEnergy +
        config.writesPerEvent * array.writeEnergy;
    r.eventLatency = config.readsPerEvent * array.readLatency +
        config.writesPerEvent * array.writeLatency;

    double onTime = std::max(config.computeTimePerEvent, r.eventLatency);
    double leakEnergy = array.leakage * onTime;

    constexpr double kSecPerDay = 86400.0;
    double restoreEnergy = 0.0;
    double restoreWrites = 0.0;
    r.wakeLatency = 0.0;

    if (array.cell.nonVolatile) {
        // Power-gated between events with residual retention leakage.
        r.standbyEnergyPerDay =
            config.sleepLeakFraction * array.leakage * kSecPerDay;
        // The cell must retain state across the off interval.
        double offInterval = kSecPerDay / config.eventsPerDay;
        r.retentionOk = array.cell.retention >= offInterval;
    } else if (config.restoreBytesOnWake > 0.0) {
        // Volatile storage: choose the cheaper of staying powered all
        // day or restoring contents from DRAM on each wake-up.
        double restorePerEvent = config.restoreBytesOnWake *
            config.restoreEnergyPerByte;
        restoreWrites = config.restoreBytesOnWake * 8.0 /
            (double)array.wordBits;
        restorePerEvent += restoreWrites * array.writeEnergy;
        double restoreDay = restorePerEvent * config.eventsPerDay;
        double poweredDay = array.leakage * kSecPerDay;
        if (poweredDay <= restoreDay) {
            r.keptPowered = true;
            r.standbyEnergyPerDay = poweredDay;
            restoreWrites = 0.0;
        } else {
            restoreEnergy = restorePerEvent;
            r.wakeLatency = config.restoreBytesOnWake /
                config.restoreBandwidth;
        }
    } else {
        // Volatile with nothing to retain: free power-off.
        r.standbyEnergyPerDay = 0.0;
    }

    r.energyPerEvent = accessEnergy + leakEnergy + restoreEnergy;
    r.energyPerDay = r.energyPerEvent * config.eventsPerDay +
        r.standbyEnergyPerDay;
    double writesPerDay =
        (config.writesPerEvent + restoreWrites) * config.eventsPerDay;
    if (writesPerDay > 0.0) {
        r.lifetimeSec = array.cell.endurance * array.words() /
            (writesPerDay / 86400.0);
    } else {
        r.lifetimeSec = std::numeric_limits<double>::infinity();
    }
    return r;
}

EvalResult
evaluateWithWriteBuffer(const ArrayResult &array,
                        const TrafficPattern &traffic,
                        const WriteBufferConfig &config)
{
    if (config.latencyMaskFraction < 0.0 ||
        config.latencyMaskFraction > 1.0 ||
        config.trafficReduction < 0.0 || config.trafficReduction > 1.0) {
        fatal("write-buffer fractions must lie in [0, 1]");
    }
    ArrayResult buffered = array;
    buffered.writeLatency =
        array.writeLatency * (1.0 - config.latencyMaskFraction);
    // Keep a floor: even a fully masked write costs a buffer access.
    buffered.writeLatency =
        std::max(buffered.writeLatency, array.readLatency * 0.5);
    double wordBytes = (double)array.wordBits / 8.0;
    buffered.writeBandwidth = (double)buffered.org.banks * wordBytes /
        buffered.writeLatency;

    TrafficPattern reduced = traffic.scaled(1.0, traffic.name + "+wbuf");
    reduced.writesPerSec =
        traffic.writesPerSec * (1.0 - config.trafficReduction);

    return evaluate(
        std::make_shared<const ArrayResult>(std::move(buffered)),
        std::make_shared<const TrafficPattern>(std::move(reduced)));
}

} // namespace nvmexp
