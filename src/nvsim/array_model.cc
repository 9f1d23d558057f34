#include "nvsim/array_model.hh"

#include <algorithm>
#include <cmath>

#include "nvsim/circuits.hh"
#include "util/logging.hh"

namespace nvmexp {

std::string
optTargetName(OptTarget target)
{
    switch (target) {
      case OptTarget::ReadLatency:  return "ReadLatency";
      case OptTarget::WriteLatency: return "WriteLatency";
      case OptTarget::ReadEDP:      return "ReadEDP";
      case OptTarget::WriteEDP:     return "WriteEDP";
      case OptTarget::ReadEnergy:   return "ReadEnergy";
      case OptTarget::WriteEnergy:  return "WriteEnergy";
      case OptTarget::Area:         return "Area";
      case OptTarget::Leakage:      return "Leakage";
      default: panic("bad OptTarget ", (int)target);
    }
}

const std::vector<OptTarget> &
allOptTargets()
{
    static const std::vector<OptTarget> targets = {
        OptTarget::ReadLatency, OptTarget::WriteLatency,
        OptTarget::ReadEDP, OptTarget::WriteEDP, OptTarget::ReadEnergy,
        OptTarget::WriteEnergy, OptTarget::Area, OptTarget::Leakage,
    };
    return targets;
}

double
ArrayResult::densityMbPerMm2() const
{
    if (areaM2 <= 0.0)
        return 0.0;
    double mbits = capacityBytes * 8.0 / 1e6;
    return mbits / (areaM2 / 1e-6);
}

double
ArrayResult::metric(OptTarget target) const
{
    switch (target) {
      case OptTarget::ReadLatency:  return readLatency;
      case OptTarget::WriteLatency: return writeLatency;
      case OptTarget::ReadEDP:      return readLatency * readEnergy;
      case OptTarget::WriteEDP:     return writeLatency * writeEnergy;
      case OptTarget::ReadEnergy:   return readEnergy;
      case OptTarget::WriteEnergy:  return writeEnergy;
      case OptTarget::Area:         return areaM2;
      case OptTarget::Leakage:      return leakage;
      default: panic("bad OptTarget ", (int)target);
    }
}

ArrayDesigner::ArrayDesigner(const MemCell &cell, const ArrayConfig &config)
    : cell_(cell), config_(config), node_(techNodeFor(config.nodeNm))
{
    cell_.validate();
    if (config_.capacityBytes < ArrayConfig::kMinCapacityBytes)
        fatal("array capacity below 1 KiB is not supported");
    if (config_.wordBits < 8 || config_.wordBits > 4096)
        fatal("wordBits must be in [8, 4096]");
    if (config_.nodeNm < cell_.minNodeNm) {
        warn("cell '", cell_.name, "' has not been demonstrated below ",
             cell_.minNodeNm, " nm; projecting to ", config_.nodeNm,
             " nm");
    }
}

ArrayResult
ArrayDesigner::characterize(const Organization &org) const
{
    SubarrayMetrics sub = characterizeSubarray(cell_, node_,
                                               org.subarray);

    ArrayResult r;
    r.cell = cell_;
    r.nodeNm = config_.nodeNm;
    r.capacityBytes = config_.capacityBytes;
    r.wordBits = config_.wordBits;
    r.org = org;

    int totalSubarrays = org.banks * org.subarraysPerBank;

    // Bank floorplan: square-ish tiling of subarrays, H-tree routed.
    double bankArea = (double)org.subarraysPerBank * sub.areaM2;
    int htreeLevels = std::max(
        0, (int)std::ceil(std::log2((double)org.subarraysPerBank)));
    double wiringOverhead = 1.0 + 0.08 * (double)htreeLevels;
    bankArea *= wiringOverhead;
    double totalArea = bankArea * (double)org.banks * 1.02;

    // Global route: from the bank edge to the farthest subarray, about
    // half the bank perimeter, plus the spine across banks.
    double bankDist = std::sqrt(bankArea);
    double spineDist = 0.5 * std::sqrt(totalArea);
    double routeLen = bankDist + spineDist;
    // Address in plus data out: the global route is paid twice per
    // access.
    double tRoute = 2.0 * repeatedWireDelay(node_, routeLen);
    double eRoute = repeatedWireEnergyPerBit(node_, routeLen) *
        (double)config_.wordBits;
    // Address distribution to the target subarray.
    double eAddr = repeatedWireEnergyPerBit(node_, routeLen) * 32.0;

    r.readLatency = sub.readLatency + tRoute;
    r.writeLatency = sub.writeLatency + tRoute;
    r.readEnergy = sub.readEnergy + eRoute + eAddr;
    r.writeEnergy = sub.writeEnergy + eRoute + eAddr;
    // Subarray periphery plus global repeaters/control logic; the
    // latter scale with the routed die area (~2.5 mW/mm^2 at these
    // nodes), which is what makes denser technologies leak less at
    // iso-capacity.
    r.leakage = sub.leakage * (double)totalSubarrays +
        totalArea * 2.5e3;
    r.areaM2 = totalArea;
    r.areaEfficiency =
        sub.cellAreaM2 * (double)totalSubarrays / totalArea;

    double wordBytes = (double)config_.wordBits / 8.0;
    r.readBandwidth = (double)org.banks * wordBytes / r.readLatency;
    r.writeBandwidth = (double)org.banks * wordBytes / r.writeLatency;
    return r;
}

std::vector<ArrayResult>
ArrayDesigner::enumerate() const
{
    std::vector<ArrayResult> results;
    double capacityBits = config_.capacityBytes * 8.0;
    double cells = capacityBits / (double)cell_.bitsPerCell;

    for (int banks = 1; banks <= config_.maxBanks; banks *= 2) {
        for (int rows = 128; rows <= 4096; rows *= 2) {
            for (int cols = 128; cols <= 4096; cols *= 2) {
                if (cols < config_.wordBits / cell_.bitsPerCell)
                    continue;
                double perSub = (double)rows * (double)cols;
                double subsPerBank = cells / ((double)banks * perSub);
                if (subsPerBank < 1.0 ||
                    subsPerBank > 4096.0 ||
                    std::floor(subsPerBank) != subsPerBank) {
                    continue;
                }
                Organization org;
                org.banks = banks;
                org.subarraysPerBank = (int)subsPerBank;
                org.subarray.rows = rows;
                org.subarray.cols = cols;
                // The word is sensed from one subarray; each sensed
                // cell provides bitsPerCell bits.
                org.subarray.sensedBits =
                    config_.wordBits / cell_.bitsPerCell;
                if (org.subarray.sensedBits < 1 ||
                    cols % org.subarray.sensedBits != 0) {
                    continue;
                }
                ArrayResult r = characterize(org);
                if (r.areaEfficiency < config_.minAreaEfficiency)
                    continue;
                results.push_back(std::move(r));
            }
        }
    }
    return results;
}

ArrayResult
ArrayDesigner::optimize(OptTarget target) const
{
    auto candidates = enumerate();
    if (candidates.empty())
        fatal("no valid array organization for cell '", cell_.name,
              "' at capacity ", config_.capacityBytes, " B");
    const ArrayResult *best = &candidates.front();
    for (const auto &r : candidates)
        if (r.metric(target) < best->metric(target))
            best = &r;
    return *best;
}

std::vector<ArrayResult>
characterizeAll(const std::vector<MemCell> &cells,
                const ArrayConfig &config, OptTarget target)
{
    std::vector<ArrayResult> out;
    out.reserve(cells.size());
    for (const auto &cell : cells) {
        ArrayDesigner designer(cell, config);
        out.push_back(designer.optimize(target));
    }
    return out;
}

} // namespace nvmexp
