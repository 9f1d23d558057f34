/**
 * @file
 * Multi-core sweep engine.
 *
 * The sweep cross product (cells x capacities x targets x traffic) is
 * embarrassingly parallel: every array characterization and every
 * (array, traffic) evaluation is independent. ParallelSweepRunner
 * shards those items across a ThreadPool while writing each result
 * into its serial-order slot, so the output is identical regardless of
 * worker count or scheduling. Evaluation always runs the batched path
 * of eval/batch.hh.
 *
 * There is no process-wide default: the worker count and the store
 * come from each SweepConfig (the CLI writes its --jobs/--out/--resume
 * flags there) or from the runner's constructor argument.
 */

#ifndef NVMEXP_CORE_PARALLEL_SWEEP_HH
#define NVMEXP_CORE_PARALLEL_SWEEP_HH

#include <memory>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "store/result_store.hh"
#include "util/thread_pool.hh"

namespace nvmexp {

class BatchEvalContext;

/**
 * Resolve a sweep's effective traffic list: explicit patterns first,
 * then every workload spec expanded through the WorkloadRegistry in
 * order, on config.jobs threads (workload::expandWorkloads; the
 * patterns do not depend on the job count). Returns `config` itself
 * when there is nothing to expand (so the common path stays
 * copy-free) and the filled `storage` otherwise.
 * The sweep fingerprint — and therefore every campaign shard plan —
 * is defined over the expanded form this returns.
 */
const SweepConfig &expandSweepWorkloads(const SweepConfig &config,
                                        SweepConfig &storage);

/** Runs sweep cross products on a fixed number of worker threads. */
class ParallelSweepRunner
{
  public:
    /** @param jobs worker threads; <=0 means all hardware threads. */
    explicit ParallelSweepRunner(int jobs = 1);

    /** Resolved worker count (always >= 1). */
    int jobs() const { return jobs_; }

    /** Parallel equivalent of characterizeSweep: cells x capacities x
     *  targets, results in serial sweep order. The warnings each
     *  (cell, capacity) pair raises print in that order too, once every
     *  pair is done. With config.outDir set,
     *  already-characterized arrays are served from the store's cache
     *  (byte-identical to recomputation) and fresh ones persisted, so
     *  an interrupted characterization resumes where it stopped. */
    std::vector<ArrayResult> characterize(const SweepConfig &config) const;

    /** Parallel equivalent of runSweep: characterize then evaluate
     *  against every traffic pattern, results in serial sweep order.
     *  With config.outDir set, evaluation slots are journaled (and
     *  replayed under config.resume) and results.json/.csv written. */
    std::vector<EvalResult> run(const SweepConfig &config) const;

    /** Store-backed run of the slot subset selected by `owned` (a
     *  campaign shard): non-selected slots are neither evaluated nor
     *  journaled. The store gets its checkpoint journal and stats.json
     *  but no results.json/.csv: the journal is the shard's only copy
     *  of its rows, and the campaign merge writes the artifacts once
     *  from every shard's journal. Returns the owned rows in ascending
     *  slot order. The journal still claims the full sweep fingerprint
     *  and slot count, so shard journals merge into one canonical
     *  journal. Requires config.outDir; honors config.resume the same
     *  way run() does. A null selector behaves exactly like run(). */
    std::vector<EvalResult>
    runSelected(const SweepConfig &config,
                const std::function<bool(std::size_t)> &owned) const;

    /** Store counters from the last characterize()/run() that used a
     *  result store (zeros otherwise). */
    const store::StoreStats &lastStoreStats() const
    {
        return lastStoreStats_;
    }

    /** Evaluate the full arrays x traffics cross product, array-major
     *  (the order the serial study loops produce), annotated with the
     *  default {ecc: "none"} reliability numbers. */
    std::vector<EvalResult>
    evaluateAll(const std::vector<ArrayResult> &arrays,
                const std::vector<TrafficPattern> &traffics) const;

    /** Evaluate arrays x traffics x reliability specs (spec
     *  innermost), each row annotated with its spec's failure rates
     *  and overhead. An empty spec list means the implicit default
     *  spec, reproducing the two-argument overload exactly. Runs the
     *  batched path (eval/batch.hh), which every sweep evaluates
     *  through: the rows share one handle per array and one per
     *  traffic pattern. */
    std::vector<EvalResult>
    evaluateAll(const std::vector<ArrayResult> &arrays,
                const std::vector<TrafficPattern> &traffics,
                const std::vector<reliability::ReliabilitySpec> &specs)
        const;

    /** Optimize one array per cell at a fixed capacity/word width,
     *  results and warnings in cell order. */
    std::vector<ArrayResult>
    optimizeAll(const std::vector<MemCell> &cells, double capacityBytes,
                int wordBits, OptTarget target, int nodeNm = 22,
                int sramNodeNm = 16) const;

  private:
    /** Shard body(i) over the runner's workers (inline when jobs_ is
     *  1). The pool is created on first parallel use and reused for
     *  every subsequent loop of this runner (a study typically issues
     *  one loop per traffic pattern or scenario). */
    void shard(std::size_t count,
               const std::function<void(std::size_t)> &body) const;

    /** characterize() body against an optional store (null = none). */
    std::vector<ArrayResult>
    characterizeWithStore(const SweepConfig &config,
                          store::ResultStore *resultStore) const;

    /** Shared store-backed body of run()/runSelected(); `config` is
     *  already workload-expanded and validated. */
    std::vector<EvalResult>
    runStoreBacked(const SweepConfig &config,
                   const std::function<bool(std::size_t)> &owned) const;

    /** Shard the context's slots over the workers in contiguous
     *  batches of the context's defaultBatchSize(). todo and onSlot
     *  pass through to evaluateRange() unchanged. */
    void shardBatches(const BatchEvalContext &context,
                      std::vector<EvalResult> &results,
                      const std::vector<char> *todo,
                      const std::function<void(std::size_t)> &onSlot)
        const;

    int jobs_;
    /** Lazily-created persistent worker pool; runners are not
     *  thread-safe themselves (one sweep driver per runner). */
    mutable std::unique_ptr<ThreadPool> pool_;
    mutable store::StoreStats lastStoreStats_;
};

} // namespace nvmexp

#endif // NVMEXP_CORE_PARALLEL_SWEEP_HH
