/**
 * @file
 * Batched structure-of-arrays evaluation of the sweep inner loop.
 *
 * The expanded sweep is the flat cross product
 * arrays x traffics x reliability specs, spec-innermost. Evaluated
 * one point at a time (eval/engine.hh + reliability/reliability.hh),
 * every point pays the full base evaluation AND the full reliability
 * evaluation, although the base depends only on (array, traffic) and
 * the reliability numbers only on (array, spec) — with a reliability
 * axis the same lgamma-heavy binomial tails are recomputed once per
 * traffic pattern, and the same traffic math once per spec.
 *
 * BatchEvalContext hoists both: evaluateRange() computes each
 * (array, traffic) base exactly once per contiguous run of slots, and
 * each array's reliability rows (its raw FaultModel BER once, then
 * only the ECC/scrub terms per spec) exactly once per context, on
 * the worker of the first range that reaches the array, however the
 * ranges split its block. The per-point work left over is a struct
 * copy.
 *
 * This is the only evaluation path of the sweep engine. Bitwise
 * identity with per-point evaluation is a hard requirement (the
 * per-point oracle in tests/eval/test_batch_equivalence.cc pins it),
 * which is why the hoisted terms are produced by the *same* scalar
 * kernels — evaluate() and ReliabilityEvaluator::evaluate() — on the
 * same inputs, rather than by re-derived vectorized math:
 * re-expressing the arithmetic in separate loops would leave the
 * results at the mercy of per-site floating-point contraction
 * choices. The speedup comes from doing the expensive work once per
 * (pair | array x spec) instead of once per point, not from
 * reordering any individual computation.
 */

#ifndef NVMEXP_EVAL_BATCH_HH
#define NVMEXP_EVAL_BATCH_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/engine.hh"
#include "reliability/reliability.hh"

namespace nvmexp {

/**
 * Precomputed state for evaluating one expanded sweep in batches.
 *
 * Holds one shared handle per array and per traffic pattern, which
 * every row evaluated against them refers to, and a reference to the
 * caller's evaluators (they must outlive the context). Construction
 * builds the handles and validates every traffic pattern once;
 * evaluateRange() is const and safe to call concurrently on disjoint
 * slot ranges from the sweep engine's worker threads (ranges that
 * share an array share its one build of the reliability rows).
 */
class BatchEvalContext
{
  public:
    /** @param evaluators one per reliability spec; at least one (the
     *  sweep engine passes the implicit "none" spec when the sweep
     *  has no reliability axis). */
    BatchEvalContext(
        const std::vector<ArrayResult> &arrays,
        const std::vector<TrafficPattern> &traffics,
        const std::vector<reliability::ReliabilityEvaluator>
            &evaluators);

    /** Expanded points: arrays x traffics x specs. */
    std::size_t points() const { return points_; }

    /**
     * Slots per batched work item, the size the sweep engine always
     * uses: enough batches to keep `jobs` workers busy, but never
     * splitting below one spec-run so the per-(array, traffic) base
     * amortizes, nor above one array block. Scheduling only —
     * splitting the slots into ranges of any size produces identical
     * results.
     */
    std::size_t defaultBatchSize(int jobs) const;

    /**
     * Evaluate slots [begin, end) of the expanded cross product into
     * the same positions of `out` (sized points()). Slots with
     * todo[slot] == 0 are left untouched (checkpoint-replayed rows).
     * `onSlot`, when set, fires after each freshly evaluated slot —
     * the sweep engine journals the result there.
     */
    void evaluateRange(
        std::size_t begin, std::size_t end,
        std::vector<EvalResult> &out,
        const std::vector<char> *todo = nullptr,
        const std::function<void(std::size_t)> &onSlot = {}) const;

  private:
    /** Array `array`'s reliability rows, one per spec, built on the
     *  first call for that array. */
    const std::vector<reliability::ReliabilityResult> &
    reliabilityRows(std::size_t array) const;

    std::vector<std::shared_ptr<const ArrayResult>> arrays_;
    std::vector<std::shared_ptr<const TrafficPattern>> traffics_;
    const std::vector<reliability::ReliabilityEvaluator> &evaluators_;
    std::size_t ntraffics_;
    std::size_t nspecs_;
    std::size_t points_;
    /** Per array: built once under its flag, read-only after. */
    mutable std::vector<std::once_flag> relOnce_;
    mutable std::vector<std::vector<reliability::ReliabilityResult>>
        relRows_;
};

} // namespace nvmexp

#endif // NVMEXP_EVAL_BATCH_HH
