/**
 * @file
 * Application memory-traffic descriptions (the application level of
 * the NVMExplorer configuration stack, Sec. II-A).
 *
 * A TrafficPattern captures how a workload exercises one memory array:
 * word-access rates, the read/write mix, and the execution window the
 * counts were measured over. Patterns come from workload substrates
 * (src/dnn, src/graph, src/cachesim) or from generic rate sweeps
 * (Sec. IV-B's 1-10 GB/s x 1-100 MB/s grid).
 */

#ifndef NVMEXP_EVAL_TRAFFIC_HH
#define NVMEXP_EVAL_TRAFFIC_HH

#include <string>
#include <vector>

namespace nvmexp {

/**
 * Memory traffic to one array over an execution window.
 *
 * Rates are in array-word accesses per second; helpers convert from
 * byte bandwidths given the array word size.
 */
struct TrafficPattern
{
    std::string name;
    double readsPerSec = 0.0;   ///< word reads per second
    double writesPerSec = 0.0;  ///< word writes per second
    double execTime = 1.0;      ///< seconds the counts are measured over

    /** Total reads over the execution window. */
    double readsPerExec() const { return readsPerSec * execTime; }
    /** Total writes over the execution window. */
    double writesPerExec() const { return writesPerSec * execTime; }

    /** Read fraction of all accesses (1.0 when idle). */
    double readFraction() const;

    /** Required read bandwidth [bytes/s] for a given word size. */
    double readBytesPerSec(int wordBits) const;
    /** Required write bandwidth [bytes/s] for a given word size. */
    double writeBytesPerSec(int wordBits) const;

    /** Build from byte bandwidths (generic-rate studies). */
    static TrafficPattern fromByteRates(const std::string &name,
                                        double readBytesPerSec,
                                        double writeBytesPerSec,
                                        int wordBits,
                                        double execTime = 1.0);

    /** Build from access counts over an execution window. */
    static TrafficPattern fromCounts(const std::string &name,
                                     double reads, double writes,
                                     double execTime);

    /** Scale both rates (e.g., multi-task = N x single-task). */
    TrafficPattern scaled(double factor, const std::string &newName) const;

    /** Validate invariants; fatal() on nonsense (negative or
     *  non-finite rates, an execution time that is not positive and
     *  finite). */
    void validate() const;
};

/**
 * Log-spaced generic traffic grid covering [readLo, readHi] x
 * [writeLo, writeHi] bytes/s with `steps` points per axis
 * (the paper's graph-processing generic sweep).
 */
std::vector<TrafficPattern>
genericTrafficGrid(double readLoBps, double readHiBps, double writeLoBps,
                   double writeHiBps, int steps, int wordBits);

} // namespace nvmexp

#endif // NVMEXP_EVAL_TRAFFIC_HH
