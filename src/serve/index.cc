#include "serve/index.hh"

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
    const auto &registry = metrics::MetricRegistry::instance();
    for (const auto &name : registry.names()) {
        const metrics::Metric &m = registry.require(name);
        auto &column = index->columns_[name];
        column.reserve(results.size());
        for (const auto &r : results)
            column.push_back(m.eval(r));
    }
    index->results_ = std::move(results);
    index->fingerprint_ = std::move(fingerprint);
    return index;
}

std::vector<EvalResult>
StoreIndex::query(const store::StoreQuery &query) const
{
    auto column = [this](const metrics::Metric &m) -> const auto & {
        auto it = columns_.find(m.name);
        if (it == columns_.end()) {
            fatal("store query: metric '", m.name,
                  "' was registered after the index was built; reload "
                  "the store to index it");
        }
        return it->second;
    };
    std::vector<std::size_t> kept =
        store::selectRows(query, results_.size(), column);
    std::vector<EvalResult> out;
    out.reserve(kept.size());
    for (std::size_t row : kept)
        out.push_back(results_[row]);
    return out;
}

} // namespace serve
} // namespace nvmexp
