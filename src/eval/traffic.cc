#include "eval/traffic.hh"

#include <cmath>

#include "util/logging.hh"

namespace nvmexp {

double
TrafficPattern::readFraction() const
{
    double total = readsPerSec + writesPerSec;
    return total > 0.0 ? readsPerSec / total : 1.0;
}

double
TrafficPattern::readBytesPerSec(int wordBits) const
{
    return readsPerSec * (double)wordBits / 8.0;
}

double
TrafficPattern::writeBytesPerSec(int wordBits) const
{
    return writesPerSec * (double)wordBits / 8.0;
}

TrafficPattern
TrafficPattern::fromByteRates(const std::string &name,
                              double readBytesPerSec,
                              double writeBytesPerSec, int wordBits,
                              double execTime)
{
    if (wordBits <= 0)
        fatal("fromByteRates: non-positive word size");
    TrafficPattern t;
    t.name = name;
    t.readsPerSec = readBytesPerSec / ((double)wordBits / 8.0);
    t.writesPerSec = writeBytesPerSec / ((double)wordBits / 8.0);
    t.execTime = execTime;
    t.validate();
    return t;
}

TrafficPattern
TrafficPattern::fromCounts(const std::string &name, double reads,
                           double writes, double execTime)
{
    if (!(execTime > 0.0))  // NaN too
        fatal("fromCounts: non-positive execution time");
    TrafficPattern t;
    t.name = name;
    t.readsPerSec = reads / execTime;
    t.writesPerSec = writes / execTime;
    t.execTime = execTime;
    t.validate();
    return t;
}

TrafficPattern
TrafficPattern::scaled(double factor, const std::string &newName) const
{
    if (factor < 0.0)
        fatal("traffic scale factor must be non-negative");
    TrafficPattern t = *this;
    t.name = newName;
    t.readsPerSec *= factor;
    t.writesPerSec *= factor;
    return t;
}

void
TrafficPattern::validate() const
{
    if (readsPerSec < 0.0 || writesPerSec < 0.0)
        fatal("traffic '", name, "': negative access rate");
    if (!std::isfinite(readsPerSec) || !std::isfinite(writesPerSec)) {
        fatal("traffic '", name, "': access rates must be finite, got ",
              readsPerSec, " reads/s and ", writesPerSec, " writes/s");
    }
    if (!(execTime > 0.0))  // NaN too
        fatal("traffic '", name, "': non-positive execution time");
    if (!std::isfinite(execTime))
        fatal("traffic '", name, "': execution time must be finite");
}

std::vector<TrafficPattern>
genericTrafficGrid(double readLoBps, double readHiBps, double writeLoBps,
                   double writeHiBps, int steps, int wordBits)
{
    if (steps < 2)
        fatal("genericTrafficGrid needs at least 2 steps per axis");
    if (readLoBps <= 0.0 || writeLoBps <= 0.0 || readHiBps < readLoBps ||
        writeHiBps < writeLoBps) {
        fatal("genericTrafficGrid: invalid rate bounds");
    }
    std::vector<TrafficPattern> grid;
    for (int i = 0; i < steps; ++i) {
        double fr = (double)i / (double)(steps - 1);
        double rd = readLoBps * std::pow(readHiBps / readLoBps, fr);
        for (int j = 0; j < steps; ++j) {
            double fw = (double)j / (double)(steps - 1);
            double wr = writeLoBps * std::pow(writeHiBps / writeLoBps, fw);
            grid.push_back(TrafficPattern::fromByteRates(
                "generic-r" + std::to_string(i) + "w" + std::to_string(j),
                rd, wr, wordBits));
        }
    }
    return grid;
}

} // namespace nvmexp
