/**
 * @file
 * Read-optimized columnar index over one result store.
 *
 * Built once at load time: every registry metric is evaluated for
 * every row into a per-metric contiguous array (rank = position in the
 * registry's sorted name list), so constraint filtering, Pareto
 * reduction, and top-k ranking run over flat double columns instead of
 * re-evaluating metrics per request. Query results are guaranteed
 * byte-identical to the offline path — queries run over row indices
 * through the same paretoFront/paretoFrontND templates and the same
 * sort rules applyQuery uses, and the surviving rows serialize through
 * store::serializeResults.
 *
 * An index is immutable after construction; the server refreshes a
 * store by loading a brand-new index and swapping a shared_ptr, so
 * in-flight readers drain on the old one.
 */

#ifndef NVMEXP_SERVE_INDEX_HH
#define NVMEXP_SERVE_INDEX_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "store/result_store.hh"

namespace nvmexp {
namespace serve {

class StoreIndex
{
  public:
    /**
     * Load and index `dir`. The store's sweep fingerprint (the
     * checkpoint.jsonl header) is read before and after results.json,
     * and a mismatch — a sweep rewriting the store mid-load — rejects
     * the load, as does a missing or corrupt store. @return the index,
     * or nullptr with `error` describing the rejection.
     */
    static std::shared_ptr<const StoreIndex>
    load(const std::string &dir, std::string &error);

    /** Index in-memory rows directly (tests, benches). */
    static std::shared_ptr<const StoreIndex>
    fromResults(std::vector<EvalResult> results, std::string fingerprint);

    /**
     * Apply a query over the columns. Same stage order, same keep
     * sets, and same output order as store::applyQuery — the
     * differential tests assert serialized byte-identity. Unknown
     * metric names and k=0 are fatal with the same "store query"
     * context as the offline path (the server converts fatals to
     * structured 400s).
     */
    std::vector<EvalResult> query(const store::StoreQuery &query) const;

    /** The sweep fingerprint of the indexed store ("" for
     *  fromResults). */
    const std::string &fingerprint() const { return fingerprint_; }

    std::size_t rows() const { return results_.size(); }

    /** The indexed metric column for `name` (registry-validated;
     *  fatal with `context` when unknown). */
    const std::vector<double> &column(const std::string &name,
                                      const std::string &context) const;

  private:
    StoreIndex() = default;

    void buildColumns();

    std::vector<EvalResult> results_;   ///< row storage, store order
    std::string fingerprint_;
    std::vector<std::string> metricNames_;     ///< registry order
    std::map<std::string, std::size_t> rankOf_;
    std::vector<std::vector<double>> columns_;  ///< [rank][row]
};

/**
 * Read the sweep fingerprint from a store's checkpoint.jsonl header
 * (store::readCheckpointHeader). @return false unless the header is
 * ok.
 */
bool readStoreFingerprint(const std::string &dir, std::string &out);

} // namespace serve
} // namespace nvmexp

#endif // NVMEXP_SERVE_INDEX_HH
