#include "eval/batch.hh"

#include <algorithm>
#include <utility>

namespace nvmexp {

BatchEvalContext::BatchEvalContext(
    const std::vector<ArrayResult> &arrays,
    const std::vector<TrafficPattern> &traffics,
    const std::vector<reliability::ReliabilityEvaluator> &evaluators)
    : evaluators_(evaluators), ntraffics_(traffics.size()),
      nspecs_(evaluators.size()),
      points_(arrays.size() * traffics.size() * evaluators.size()),
      relOnce_(arrays.size()), relRows_(arrays.size())
{
    // evaluate() validates per point; once per pattern reaches
    // the same verdict (validate() depends on the pattern alone).
    traffics_.reserve(traffics.size());
    for (const auto &traffic : traffics) {
        traffic.validate();
        traffics_.push_back(std::make_shared<const TrafficPattern>(traffic));
    }
    arrays_.reserve(arrays.size());
    for (const auto &array : arrays)
        arrays_.push_back(std::make_shared<const ArrayResult>(array));
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

const std::vector<reliability::ReliabilityResult> &
BatchEvalContext::reliabilityRows(std::size_t array) const
{
    // Ranges that split an array's block may reach it concurrently:
    // one builds the rows, the others wait for that build, and
    // call_once publishes the rows to all of them.
    std::call_once(relOnce_[array], [&] {
        // The spec-independent raw BER once, then only the ECC/scrub
        // terms along the spec axis.
        const ArrayResult &a = *arrays_[array];
        double rawBer =
            reliability::ReliabilityEvaluator::rawBitErrorRate(a);
        std::vector<reliability::ReliabilityResult> rows;
        rows.reserve(nspecs_);
        for (const auto &evaluator : evaluators_)
            rows.push_back(evaluator.evaluate(a, rawBer));
        relRows_[array] = std::move(rows);
    });
    return relRows_[array];
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
    // rest copy it and swap in their spec's reliability row. An
    // array's slots are contiguous too, so its rows are looked up
    // once, at the first live slot of its block in this range.
    constexpr std::size_t kNone = (std::size_t)-1;
    std::size_t basePair = kNone;
    std::size_t baseSlot = kNone;
    std::size_t relArray = kNone;
    const std::vector<reliability::ReliabilityResult> *rel = nullptr;
    for (std::size_t idx = begin; idx < end && idx < points_; ++idx) {
        if (todo && !(*todo)[idx])
            continue;
        std::size_t pair = idx / nspecs_;
        std::size_t array = pair / ntraffics_;
        if (array != relArray) {
            rel = &reliabilityRows(array);
            relArray = array;
        }
        if (pair != basePair) {
            out[idx] = evaluate(arrays_[array],
                                traffics_[pair % ntraffics_]);
            basePair = pair;
            baseSlot = idx;
        } else {
            out[idx] = out[baseSlot];
        }
        out[idx].reliability = (*rel)[idx - pair * nspecs_];
        if (onSlot)
            onSlot(idx);
    }
}

} // namespace nvmexp
