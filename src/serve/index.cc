#include "serve/index.hh"

#include <algorithm>
#include <cmath>

#include "metrics/metric.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace serve {

bool
readStoreFingerprint(const std::string &dir, std::string &out)
{
    store::CheckpointHeader header = store::readCheckpointHeader(dir);
    if (!header.headerOk)
        return false;
    out = header.fingerprint;
    return true;
}

std::shared_ptr<const StoreIndex>
StoreIndex::load(const std::string &dir, std::string &error)
{
    std::string before;
    if (!readStoreFingerprint(dir, before)) {
        error = "store '" + dir +
                "' has no readable checkpoint.jsonl header";
        return nullptr;
    }

    std::vector<EvalResult> results;
    try {
        // loadResults is fatal on a missing/corrupt results.json;
        // convert that into a rejected load so a serving process
        // survives a broken refresh target.
        ScopedFatalThrows guard;
        results = store::loadResults(dir);
    } catch (const FatalError &e) {
        error = e.what();
        return nullptr;
    }

    // A sweep rewriting the store concurrently may have replaced
    // checkpoint.jsonl while results.json was read; only a stable
    // fingerprint proves the rows form one coherent store.
    std::string after;
    if (!readStoreFingerprint(dir, after) || after != before) {
        error = "store '" + dir +
                "' changed while loading (fingerprint moved); "
                "refusing a torn snapshot";
        return nullptr;
    }

    return fromResults(std::move(results), before);
}

std::shared_ptr<const StoreIndex>
StoreIndex::fromResults(std::vector<EvalResult> results,
                        std::string fingerprint)
{
    auto index = std::shared_ptr<StoreIndex>(new StoreIndex);
    index->results_ = std::move(results);
    index->fingerprint_ = std::move(fingerprint);
    index->buildColumns();
    return index;
}

void
StoreIndex::buildColumns()
{
    const auto &registry = metrics::MetricRegistry::instance();
    metricNames_ = registry.names();
    columns_.resize(metricNames_.size());
    for (std::size_t rank = 0; rank < metricNames_.size(); ++rank) {
        const metrics::Metric &m = registry.require(metricNames_[rank]);
        rankOf_[metricNames_[rank]] = rank;
        auto &column = columns_[rank];
        column.reserve(results_.size());
        for (const auto &r : results_)
            column.push_back(m.eval(r));
    }
}

const std::vector<double> &
StoreIndex::column(const std::string &name,
                   const std::string &context) const
{
    metrics::MetricRegistry::instance().require(name, context);
    auto it = rankOf_.find(name);
    if (it == rankOf_.end()) {
        fatal(context, ": metric '", name,
              "' was registered after the index was built; reload the "
              "store to index it");
    }
    return columns_[it->second];
}

std::vector<EvalResult>
StoreIndex::query(const store::StoreQuery &query) const
{
    const auto &registry = metrics::MetricRegistry::instance();

    // Stage 1: constraints, in row order — same pass set as
    // ConstraintSet::satisfied over full rows, read from the columns.
    std::vector<const std::vector<double> *> clauseColumns;
    clauseColumns.reserve(query.constraints.size());
    for (const auto &clause : query.constraints.clauses())
        clauseColumns.push_back(&column(clause.metric, "store query"));

    std::vector<std::size_t> kept;
    kept.reserve(results_.size());
    for (std::size_t row = 0; row < results_.size(); ++row) {
        bool pass = true;
        for (std::size_t c = 0; pass && c < clauseColumns.size(); ++c) {
            pass = query.constraints.clauses()[c].holds(
                (*clauseColumns[c])[row]);
        }
        if (pass)
            kept.push_back(row);
    }

    // Stage 2: Pareto. Row indices run through the very template
    // applyQuery's metrics::paretoByMetrics dispatches to, with keys
    // reading the columns (direction-folded exactly like
    // Metric::ascending), so the keep set and order are identical.
    if (!query.paretoMetrics.empty()) {
        std::vector<const std::vector<double> *> cols;
        std::vector<bool> minimize;
        for (const auto &name : query.paretoMetrics) {
            cols.push_back(&column(name, "store query"));
            minimize.push_back(registry.require(name).minimize());
        }

        // paretoByMetrics drops rows with any NaN key first.
        std::vector<std::size_t> rankable;
        rankable.reserve(kept.size());
        for (std::size_t row : kept) {
            bool ordered = true;
            for (const auto *col : cols) {
                if (std::isnan((*col)[row])) {
                    ordered = false;
                    break;
                }
            }
            if (ordered)
                rankable.push_back(row);
        }

        std::vector<std::function<double(const std::size_t &)>> keys;
        keys.reserve(cols.size());
        for (std::size_t k = 0; k < cols.size(); ++k) {
            const std::vector<double> *col = cols[k];
            bool asc = minimize[k];
            keys.push_back([col, asc](const std::size_t &row) {
                return asc ? (*col)[row] : -(*col)[row];
            });
        }
        kept = paretoFrontND(rankable, keys);
    }

    // Stage 3: top-k, mirroring metrics::topByMetric (NaN keys
    // dropped, stable sort on the direction-folded key, best first).
    if (!query.topMetric.empty()) {
        const auto &col = column(query.topMetric, "store query");
        bool asc = registry.require(query.topMetric).minimize();
        if (query.topK == 0)
            fatal("store query: k must be a positive count for "
                  "top-k metric '",
                  query.topMetric, "'");

        std::vector<double> keys(kept.size());
        std::vector<std::size_t> order;
        order.reserve(kept.size());
        for (std::size_t i = 0; i < kept.size(); ++i) {
            keys[i] = asc ? col[kept[i]] : -col[kept[i]];
            if (!std::isnan(keys[i]))
                order.push_back(i);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t lhs, std::size_t rhs) {
                             return keys[lhs] < keys[rhs];
                         });
        if (order.size() > query.topK)
            order.resize(query.topK);
        std::vector<std::size_t> top;
        top.reserve(order.size());
        for (std::size_t i : order)
            top.push_back(kept[i]);
        kept = std::move(top);
    }

    std::vector<EvalResult> out;
    out.reserve(kept.size());
    for (std::size_t row : kept)
        out.push_back(results_[row]);
    return out;
}

} // namespace serve
} // namespace nvmexp
