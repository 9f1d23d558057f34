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
 * BatchEvalContext hoists both: construction runs two flat-array
 * passes (raw FaultModel BER per array, then the full
 * (array x spec) reliability table re-evaluating only the ECC/scrub
 * terms along the innermost axis), and evaluateRange() computes each
 * (array, traffic) base exactly once per contiguous run of slots.
 * The per-point work left over is a struct copy.
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
#include <vector>

#include "eval/engine.hh"
#include "reliability/reliability.hh"

namespace nvmexp {

/**
 * Precomputed state for evaluating one expanded sweep in batches.
 *
 * Holds references to the caller's arrays/traffics/evaluators (they
 * must outlive the context). Construction validates every traffic
 * pattern once and builds the immutable reliability table, so
 * evaluateRange() is const and safe to call concurrently on disjoint
 * slot ranges from the sweep engine's worker threads.
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
     * amortizes. Scheduling only — splitting the slots into ranges of
     * any size produces identical results.
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
    const std::vector<ArrayResult> &arrays_;
    const std::vector<TrafficPattern> &traffics_;
    /** Reliability numbers for (array a, spec s) at a * nspecs_ + s:
     *  the flat table the innermost axis reads instead of
     *  re-evaluating the FaultModel per point. */
    std::vector<reliability::ReliabilityResult> relTable_;
    std::size_t ntraffics_;
    std::size_t nspecs_;
    std::size_t points_;
};

} // namespace nvmexp

#endif // NVMEXP_EVAL_BATCH_HH
