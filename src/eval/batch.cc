#include "eval/batch.hh"

#include <algorithm>

namespace nvmexp {

BatchEvalContext::BatchEvalContext(
    const std::vector<ArrayResult> &arrays,
    const std::vector<TrafficPattern> &traffics,
    const std::vector<reliability::ReliabilityEvaluator> &evaluators)
    : arrays_(arrays), traffics_(traffics),
      ntraffics_(traffics.size()), nspecs_(evaluators.size()),
      points_(arrays.size() * traffics.size() * evaluators.size())
{
    // evaluate() validates per point; once per pattern reaches
    // the same verdict (validate() depends on the pattern alone).
    for (const auto &traffic : traffics_)
        traffic.validate();

    // Flat pass 1: the spec-independent raw BER, once per array.
    std::vector<double> rawBer(arrays_.size());
    for (std::size_t a = 0; a < arrays_.size(); ++a)
        rawBer[a] = reliability::ReliabilityEvaluator::rawBitErrorRate(
            arrays_[a]);

    // Flat pass 2: the (array x spec) reliability table. Only the
    // ECC/scrub terms are re-evaluated along the innermost spec axis;
    // the FaultModel term comes from pass 1.
    relTable_.resize(arrays_.size() * nspecs_);
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        for (std::size_t s = 0; s < nspecs_; ++s) {
            relTable_[a * nspecs_ + s] =
                evaluators[s].evaluate(arrays_[a], rawBer[a]);
        }
    }
}

std::size_t
BatchEvalContext::defaultBatchSize(int jobs) const
{
    if (points_ == 0)
        return 1;
    // ~4 batches per worker keeps the tail of the schedule short when
    // per-batch costs vary (arrays differ in string sizes, ranges
    // differ in replayed-slot density)...
    std::size_t workers = jobs > 0 ? (std::size_t)jobs : 1;
    std::size_t fair = (points_ + workers * 4 - 1) / (workers * 4);
    // ...but a batch below one spec-run would recompute the shared
    // (array, traffic) base on both sides of the split, and above one
    // array-block there is nothing further to amortize.
    std::size_t block = std::max<std::size_t>(1, ntraffics_ * nspecs_);
    return std::clamp(fair, std::max<std::size_t>(1, nspecs_), block);
}

void
BatchEvalContext::evaluateRange(
    std::size_t begin, std::size_t end, std::vector<EvalResult> &out,
    const std::vector<char> *todo,
    const std::function<void(std::size_t)> &onSlot) const
{
    // Slots sharing an (array, traffic) pair are contiguous (the spec
    // axis is innermost), so one forward walk sees each pair as one
    // run: the first live slot of a run pays the base evaluation, the
    // rest copy it and swap in their spec's reliability row.
    constexpr std::size_t kNone = (std::size_t)-1;
    std::size_t basePair = kNone;
    std::size_t baseSlot = kNone;
    for (std::size_t idx = begin; idx < end && idx < points_; ++idx) {
        if (todo && !(*todo)[idx])
            continue;
        std::size_t pair = idx / nspecs_;
        std::size_t array = pair / ntraffics_;
        if (pair != basePair) {
            out[idx] = evaluate(arrays_[array],
                                traffics_[pair % ntraffics_]);
            basePair = pair;
            baseSlot = idx;
        } else {
            out[idx] = out[baseSlot];
        }
        out[idx].reliability =
            relTable_[array * nspecs_ + (idx - pair * nspecs_)];
        if (onSlot)
            onSlot(idx);
    }
}

} // namespace nvmexp
