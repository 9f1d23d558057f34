/**
 * @file
 * Full-array characterization: tiles subarrays into banks with global
 * H-tree interconnect, searches the organization design space, and
 * returns the best design per optimization target.
 *
 * This is the "extended NVSim" role in the NVMExplorer flow: the
 * evaluation engine consumes ArrayResult objects and combines them
 * with application traffic.
 */

#ifndef NVMEXP_NVSIM_ARRAY_MODEL_HH
#define NVMEXP_NVSIM_ARRAY_MODEL_HH

#include <string>
#include <vector>

#include "celldb/cell.hh"
#include "nvsim/subarray.hh"
#include "nvsim/technology.hh"

namespace nvmexp {

/** What the organization search minimizes (paper Fig. 3: "various
 *  optimization targets"). */
enum class OptTarget
{
    ReadLatency,
    WriteLatency,
    ReadEDP,
    WriteEDP,
    ReadEnergy,
    WriteEnergy,
    Area,
    Leakage
};

/** @return e.g. "ReadEDP". */
std::string optTargetName(OptTarget target);

/** All targets, for sweeps. */
const std::vector<OptTarget> &allOptTargets();

/** Array structural parameters chosen by the search. */
struct Organization
{
    int banks = 1;             ///< independently accessible banks
    int subarraysPerBank = 1;  ///< tiled subarrays within a bank
    SubarrayDesign subarray;   ///< inner geometry
};

/** Complete characterization of one array design point. */
struct ArrayResult
{
    MemCell cell;
    int nodeNm = 22;
    double capacityBytes = 0.0;
    int wordBits = 512;
    Organization org;

    double readLatency = 0.0;    ///< s, full access
    double writeLatency = 0.0;   ///< s, full access
    double readEnergy = 0.0;     ///< J per word access
    double writeEnergy = 0.0;    ///< J per word access
    double leakage = 0.0;        ///< W, whole array
    double areaM2 = 0.0;         ///< m^2, whole array
    double areaEfficiency = 0.0; ///< cell area / total area

    /** Peak deliverable read bandwidth, bytes/s (bank-parallel). */
    double readBandwidth = 0.0;
    /** Peak deliverable write bandwidth, bytes/s. */
    double writeBandwidth = 0.0;

    double readEnergyPerBit() const
    {
        return wordBits ? readEnergy / (double)wordBits : 0.0;
    }
    double writeEnergyPerBit() const
    {
        return wordBits ? writeEnergy / (double)wordBits : 0.0;
    }
    /** Number of wordBits-wide words the array stores (the unit the
     *  eval engine's lifetime/wear math is expressed in). */
    double words() const
    {
        return capacityBytes * 8.0 / (double)wordBits;
    }

    /** Storage density, Mbit per mm^2. */
    double densityMbPerMm2() const;

    /** Metric value used for ranking under a target. */
    double metric(OptTarget target) const;
};

/** User-visible array design constraints. */
struct ArrayConfig
{
    /** Smallest capacity ArrayDesigner builds an array for. */
    static constexpr double kMinCapacityBytes = 1024.0;

    double capacityBytes = 2.0 * 1024 * 1024;
    int wordBits = 512;          ///< access width (e.g., 64B line)
    int nodeNm = 22;             ///< implementation node
    double minAreaEfficiency = 0.35;
    int maxBanks = 16;
};

/**
 * Enumerates and optimizes array organizations for one cell.
 */
class ArrayDesigner
{
  public:
    ArrayDesigner(const MemCell &cell, const ArrayConfig &config);

    /** All valid design points (used by the Fig. 12 study). */
    std::vector<ArrayResult> enumerate() const;

    /** The best design under a target; fatal() if no valid design. */
    ArrayResult optimize(OptTarget target) const;

    /** Characterize one explicit organization. */
    ArrayResult characterize(const Organization &org) const;

  private:
    MemCell cell_;
    ArrayConfig config_;
    const TechNode &node_;
};

/**
 * Convenience: optimize an iso-capacity array for each cell in a set.
 */
std::vector<ArrayResult>
characterizeAll(const std::vector<MemCell> &cells,
                const ArrayConfig &config, OptTarget target);

} // namespace nvmexp

#endif // NVMEXP_NVSIM_ARRAY_MODEL_HH
