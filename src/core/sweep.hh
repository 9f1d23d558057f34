/**
 * @file
 * Design-space sweep driver: the "auto-generated sweep configurations"
 * stage of the NVMExplorer flow (Fig. 2 of the paper).
 *
 * A SweepConfig crosses cells x capacities x optimization targets x
 * traffic patterns; runSweep characterizes each array once and
 * evaluates it against every pattern. The Pareto templates here are
 * the dominance kernels of the "filter and refine" interaction the
 * paper's dashboard provides; the refine engine that runs them over
 * metric columns is store::selectRows (store/result_store.hh).
 */

#ifndef NVMEXP_CORE_SWEEP_HH
#define NVMEXP_CORE_SWEEP_HH

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "celldb/cell.hh"
#include "eval/engine.hh"
#include "nvsim/array_model.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace nvmexp {

/** Full cross-stack sweep specification. */
struct SweepConfig
{
    std::vector<MemCell> cells;
    std::vector<double> capacitiesBytes = {2.0 * 1024 * 1024};
    std::vector<OptTarget> targets = {OptTarget::ReadEDP};
    std::vector<TrafficPattern> traffics;
    /**
     * Workload specs ({"name": "<registry key>", ...params}) expanded
     * through the WorkloadRegistry at run time; the generated patterns
     * are appended after `traffics` in spec order. Keeping the raw
     * specs here (rather than eagerly expanding in the config loader)
     * lets the sweep engine dispatch every traffic source — built-in
     * or plugged-in — through one registry.
     */
    std::vector<JsonValue> workloads;
    /**
     * Reliability sweep axis (config "reliability"/"ecc" block): each
     * spec crosses the full (array, traffic) product, annotating every
     * result with its ECC scheme's failure rates and overhead. Empty
     * means one implicit {ecc: "none", scrub 0} spec — the result rows
     * are then identical to a sweep with no reliability axis at all.
     */
    std::vector<reliability::ReliabilitySpec> reliability;
    int wordBits = 512;
    int nodeNm = 22;       ///< eNVM implementation node
    int sramNodeNm = 16;   ///< SRAM baseline node
    /** Worker threads for the sweep cross product (CLI --jobs); <=0
     *  means all hardware threads. Results are identical for any
     *  value. */
    int jobs = 1;
    /**
     * Result-store directory (CLI --out): persists
     * results.json/.csv, a content-hashed characterization cache, and
     * an evaluation checkpoint journal there. Empty disables
     * persistence. Neither this nor `resume` affects result values or
     * order — cache hits and replayed checkpoint slots are
     * byte-identical to fresh computation.
     */
    std::string outDir;
    /** Replay outDir's checkpoint journal (CLI --resume) and continue
     *  an interrupted sweep instead of restarting it. */
    bool resume = false;
    /**
     * Characterization-cache directory override; empty keeps the
     * default <outDir>/cache. Campaign shard runs point every shard
     * store at the campaign's one shared cache so an array is
     * characterized by whichever shard reaches it first. Like outDir,
     * never affects result values and is excluded from the sweep
     * fingerprint. Programmatic only (no config key).
     */
    std::string cacheDir;
};

/** Implementation node for a cell: SRAM baselines use the (denser)
 *  SRAM node, eNVMs the eNVM node — the paper's 16 nm SRAM vs 22 nm
 *  eNVM comparison. Single source of truth for every sweep/study. */
inline int
implementationNode(const MemCell &cell, int nodeNm = 22,
                   int sramNodeNm = 16)
{
    return cell.tech == CellTech::SRAM ? sramNodeNm : nodeNm;
}

/** Run the full cross product; arrays that cannot be built are
 *  skipped with a warning rather than aborting the sweep. */
std::vector<EvalResult> runSweep(const SweepConfig &config);

/** Characterize arrays only (no traffic): cells x capacities x
 *  targets. */
std::vector<ArrayResult> characterizeSweep(const SweepConfig &config);

/**
 * 2-D Pareto front (minimize both keys) over any result vector.
 *
 * O(n log n): sort by (keyA, keyB) and sweep with the running minimum
 * of keyB over strictly smaller keyA. Within an equal-keyA group only
 * the minimal-keyB items survive; exact (keyA, keyB) duplicates do not
 * dominate each other and are all kept. Output preserves input order.
 */
template <typename T>
std::vector<T>
paretoFront(const std::vector<T> &items,
            const std::function<double(const T &)> &keyA,
            const std::function<double(const T &)> &keyB)
{
    const std::size_t n = items.size();
    std::vector<std::pair<double, double>> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = {keyA(items[i]), keyB(items[i])};

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t lhs, std::size_t rhs) {
                  return keys[lhs] < keys[rhs];
              });

    std::vector<char> keep(n, 0);
    double bestB = 0.0;  // meaningful once i > 0
    for (std::size_t i = 0; i < n;) {
        const double a = keys[order[i]].first;
        const double groupMinB = keys[order[i]].second;
        std::size_t j = i + 1;  // progress even if a is NaN
        while (j < n && keys[order[j]].first == a)
            ++j;
        // The first group is never dominated, even at keyB = +inf.
        if (i == 0 || groupMinB < bestB) {
            for (std::size_t k = i;
                 k < j && keys[order[k]].second == groupMinB; ++k) {
                keep[order[k]] = 1;
            }
            bestB = groupMinB;
        }
        i = j;
    }

    std::vector<T> front;
    for (std::size_t i = 0; i < n; ++i)
        if (keep[i])
            front.push_back(items[i]);
    return front;
}

/**
 * N-dimensional Pareto front (minimize every key) over any result
 * vector; store::selectRows runs it over row indices with
 * direction-folded metric columns as keys.
 *
 * Two keys take the sorted O(n log n) fast path above and reproduce
 * its front exactly. Other dimensionalities run a lexicographic-order
 * dominance scan against the growing front: a dominator always
 * precedes its victims in lexicographic key order, and dominance is
 * transitive, so comparing each candidate against accepted front
 * members alone is sufficient. Exact key-tuple duplicates do not
 * dominate each other and are all kept; output preserves input order.
 */
template <typename T>
std::vector<T>
paretoFrontND(const std::vector<T> &items,
              const std::vector<std::function<double(const T &)>> &keys)
{
    if (keys.empty())
        panic("paretoFrontND needs at least one key");
    if (keys.size() == 2)
        return paretoFront(items, keys[0], keys[1]);

    const std::size_t n = items.size();
    const std::size_t d = keys.size();
    std::vector<std::vector<double>> values(n,
                                            std::vector<double>(d));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < d; ++k)
            values[i][k] = keys[k](items[i]);

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t lhs, std::size_t rhs) {
                  return values[lhs] < values[rhs];
              });

    std::vector<char> keep(n, 0);
    std::vector<std::size_t> front;
    for (std::size_t index : order) {
        bool dominated = false;
        for (std::size_t member : front) {
            bool allLe = true;
            bool oneLt = false;
            for (std::size_t k = 0; k < d; ++k) {
                if (values[member][k] > values[index][k]) {
                    allLe = false;
                    break;
                }
                if (values[member][k] < values[index][k])
                    oneLt = true;
            }
            if (allLe && oneLt) {
                dominated = true;
                break;
            }
        }
        if (!dominated) {
            keep[index] = 1;
            front.push_back(index);
        }
    }

    std::vector<T> out;
    for (std::size_t i = 0; i < n; ++i)
        if (keep[i])
            out.push_back(items[i]);
    return out;
}

} // namespace nvmexp

#endif // NVMEXP_CORE_SWEEP_HH
