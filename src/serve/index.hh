/**
 * @file
 * Read-optimized columnar index over one result store.
 *
 * Built once at load time: every registry metric is evaluated for
 * every row into a per-metric contiguous array, so a request never
 * re-evaluates a metric. Queries run through the one refine engine,
 * store::selectRows, with these prebuilt columns as its ColumnSource
 * — the offline store::applyQuery runs the same engine over columns it
 * builds per query — and the surviving rows serialize through
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
     * Apply a query: store::selectRows over the indexed columns, the
     * kept rows copied out in output order. Unknown metric names and
     * k=0 are fatal with the "store query" context (the server
     * converts fatals to structured 400s); so is a metric registered
     * after the index was built.
     */
    std::vector<EvalResult> query(const store::StoreQuery &query) const;

    /** The sweep fingerprint of the indexed store ("" for
     *  fromResults). */
    const std::string &fingerprint() const { return fingerprint_; }

    std::size_t rows() const { return results_.size(); }

  private:
    StoreIndex() = default;

    std::vector<EvalResult> results_;   ///< row storage, store order
    std::string fingerprint_;
    /** Every registry metric's column: the query's ColumnSource. */
    std::map<std::string, std::vector<double>> columns_;
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
