/**
 * @file
 * Persistent sweep result store: the on-disk artifact behind the
 * paper's "filter and refine" dashboard stage.
 *
 * A store is one directory:
 *
 *   <dir>/cache/<hash>.json   characterization cache, one entry per
 *                             (cell, capacity, target, node) content
 *                             hash; re-running an identical or
 *                             enlarged sweep skips already-
 *                             characterized arrays. A store may be
 *                             pointed at an external cache directory
 *                             instead (campaign shards share one)
 *   <dir>/checkpoint.jsonl    append-only journal of completed
 *                             evaluation slots; an interrupted sweep
 *                             resumed with SweepConfig::resume
 *                             continues where it stopped
 *   <dir>/results.json        full-precision serialized EvalResults
 *   <dir>/results.csv         same results, flat CSV for external
 *                             dashboards (a campaign shard writes
 *                             neither: its journal is its results)
 *   <dir>/stats.json          cache/checkpoint counters of the last
 *                             run (the 100%-cache-hit acceptance
 *                             check reads these)
 *
 * Cache entries and checkpoint slots round-trip doubles exactly
 * (util/json shortest-exact formatting), so a resumed or cache-served
 * sweep produces results byte-identical to a cold serial run. Cache
 * invalidation is purely content-based: any change to the cell
 * definition, capacity, optimization target, node, word width, or
 * store format version changes the key hash, and the stale entry is
 * simply never referenced again. One sweep per directory at a time;
 * the characterization cache may be shared across sweeps.
 */

#ifndef NVMEXP_STORE_RESULT_STORE_HH
#define NVMEXP_STORE_RESULT_STORE_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "metrics/constraints.hh"
#include "store/serialize.hh"

namespace nvmexp {
namespace store {

/** Counters from one store-backed sweep (exposed via stats.json). */
struct StoreStats
{
    std::uint64_t cacheHits = 0;      ///< arrays served from cache
    std::uint64_t cacheMisses = 0;    ///< arrays characterized fresh
    std::uint64_t cacheStores = 0;    ///< cache entries written
    std::uint64_t checkpointLoaded = 0;   ///< eval slots resumed
    std::uint64_t checkpointComputed = 0; ///< eval slots computed

    std::uint64_t cacheLookups() const { return cacheHits + cacheMisses; }
};

/** stats.json: "format" (this build's) and each counter, a whole
 *  number in [0, 2^53], once; nothing else. */
void writeJson(JsonWriter &w, const StoreStats &stats);
void readJson(JsonReader &r, StoreStats &stats);

/** 64-bit FNV-1a content hash (stable across platforms/runs). */
std::uint64_t fnv1a64(const std::string &text);

/** Hash of everything that determines a sweep's results (cells,
 *  capacities, targets, traffics, word width, nodes — not jobs or
 *  store settings). Guards checkpoint reuse across config edits. */
std::string sweepFingerprint(const SweepConfig &config);

/**
 * One result-store directory. Thread-safe: the sweep engine calls
 * lookup/store/checkpoint methods from its worker threads.
 */
class ResultStore
{
  public:
    /** Opens (creating if needed) the store directory. By default the
     *  characterization cache lives at <dir>/cache; passing a
     *  non-empty `cacheDir` points it elsewhere so several stores —
     *  e.g. the shard stores of one campaign — can share entries.
     *  Entry writes are atomic (write-then-rename), so concurrent
     *  processes may share a cache directory safely. */
    explicit ResultStore(std::string dir, std::string cacheDir = "");

    const std::string &dir() const { return dir_; }

    /** Cache lookups distinguish "no entry" from a cached negative
     *  (a design point with no valid organization). */
    enum class CacheOutcome { Miss, Hit, HitInvalid };

    /** Content-hash key for one characterized array. */
    static std::string characterizationKey(const MemCell &cell,
                                           const ArrayConfig &config,
                                           OptTarget target);

    /** @return Hit and fill `out`, HitInvalid for a cached negative,
     *  Miss otherwise — also for an entry that does not decode as a
     *  CacheEntry (torn or edited), which the sweep then recomputes
     *  and overwrites. Counts toward stats(). */
    CacheOutcome lookupArray(const std::string &key, ArrayResult &out);

    /** Persist one characterized array under its key. */
    void storeArray(const std::string &key, const ArrayResult &array);

    /** Persist a negative entry: this key has no valid design. */
    void storeInvalid(const std::string &key);

    /**
     * Open the checkpoint journal for a sweep of `slots` evaluation
     * slots. With resume=true a journal whose fingerprint and slot
     * count match is replayed and the completed slots returned;
     * otherwise (or on mismatch) the journal restarts empty. Lines
     * that do not decode whole — the interrupted trailing write — are
     * skipped (scanCheckpoint).
     */
    std::map<std::size_t, EvalResult>
    openCheckpoint(const std::string &fingerprint, std::size_t slots,
                   bool resume);

    /** Journal one completed slot (thread-safe, flushed). */
    void checkpointSlot(std::size_t slot, const EvalResult &result);

    /** Close the journal (results are about to be finalized). */
    void closeCheckpoint();

    /** Write results.json + results.csv. */
    void writeResults(const std::vector<EvalResult> &results);

    /** Write stats.json with the current counters. */
    void writeStats();

    /** Write stats.json with explicit counters (a campaign merge
     *  writes the sum over its shard stores). */
    void writeStats(const StoreStats &stats);

    StoreStats stats() const;

  private:
    std::string cachePath(const std::string &key) const;

    std::string dir_;
    std::string cacheDir_;
    mutable std::mutex mutex_;
    StoreStats stats_;
    std::ofstream checkpoint_;
};

/** One validated checkpoint journal entry: the raw journal line (no
 *  trailing newline) and what it decodes to as a JournalEntry
 *  (store/serialize), decoded once by scanCheckpoint. Resume replays
 *  `result`; a campaign merge copies `line` into the merged journal and
 *  writes `result` into the merged results artifacts. */
struct CheckpointEntry
{
    std::size_t slot = 0;
    std::string line;
    EvalResult result;
};

/** A checkpoint journal's first line: which sweep it belongs to. */
struct CheckpointHeader
{
    /** The first line is JSON as far as reading the header got: it
     *  stopped, if at all, at a member, not at malformed text. */
    bool headerParsed = false;
    /** ...and read whole: a string fingerprint and whole-number format
     *  and slots (checked before any cast), each once, nothing else */
    bool headerOk = false;
    int format = 0;
    std::string fingerprint;
    std::size_t slots = 0;
};

/** The header line, {"format": f, "fingerprint": "...", "slots": n},
 *  as a record, so a strict read (the lint's) names the member at
 *  fault. Callers compare the format with kFormatVersion. */
void writeJson(JsonWriter &w, const CheckpointHeader &header);
void readJson(JsonReader &r, CheckpointHeader &header);

/** The header of `dir`'s journal, read leniently: the one reader of it
 *  for resume, campaigns and the query server. */
CheckpointHeader readCheckpointHeader(const std::string &dir);

/**
 * Read-only scan of one store's checkpoint journal, with exactly the
 * torn-write tolerance of the resume path: the header must be ok
 * before any entries are trusted, and entry lines that do not decode
 * whole (the interrupted trailing write, an edit, a slot that is not a
 * whole number) are skipped with a warning; entries naming a slot past
 * the header's count are dropped. No comparison against an expected
 * fingerprint happens here — callers (resume, campaign merge, campaign
 * status) decide what a mismatch means for them.
 */
struct CheckpointScan : CheckpointHeader
{
    std::vector<CheckpointEntry> entries; ///< validated, file order
};

CheckpointScan scanCheckpoint(const std::string &dir);

/** The journal header line (no trailing newline) that openCheckpoint
 *  writes; a campaign merge reproduces it byte-for-byte. */
std::string checkpointHeaderLine(const std::string &fingerprint,
                                 std::size_t slots);

/**
 * One results.csv column: the header name plus the registry metric
 * backing it. Identity columns — the strings and sweep-axis keys that
 * name the design point (cell, tech, traffic, capacity_bytes,
 * word_bits, node_nm, ecc_scheme, scrub_interval_sec) — carry an
 * empty metric. Every other column's value is produced by evaluating
 * the named metric, so the CSV schema cannot drift from the registry;
 * nvmexplorer_lint cross-checks exactly this list.
 */
struct CsvColumn
{
    std::string header;  ///< results.csv header cell
    std::string metric;  ///< registry key, or "" for identity columns
};

/** The results.csv schema, in column order. */
const std::vector<CsvColumn> &resultCsvColumns();

/**
 * The byte-exact serialized form of a result set: what results.json
 * holds and what the query server's /query responses carry. Shared so
 * a served response is byte-identical to the offline artifact for the
 * same rows ({"format": v, "results": [...]} pretty-printed, trailing
 * newline).
 */
std::string serializeResults(const std::vector<EvalResult> &results);

/** Load a store's results.json through the record decoders; fatal()
 *  if it is absent or anything in it is malformed, naming the file,
 *  line and column, and for a bad member its key and value. */
std::vector<EvalResult> loadResults(const std::string &dir);

/** Load a store's stats.json. */
StoreStats loadStats(const std::string &dir);

/**
 * "Filter and refine": the dashboard interaction (paper Fig. 2), and
 * the one representation of a refine pipeline — a config's refine
 * keys, the CLI's --filter/--pareto/--top flags, query.json, and the
 * server's /query body all land here, and selectRows is the one
 * engine that runs it.
 *
 * Queries are expressed over the named-metric vocabulary
 * (src/metrics), so every query serializes losslessly: it can be
 * written to a store (query.json), read back, and re-applied with
 * identical results. Stages apply in order: constraints -> Pareto ->
 * top-k.
 */
struct StoreQuery
{
    /** Declarative (metric, op, bound) clauses, ANDed; applied
     *  first. */
    metrics::ConstraintSet constraints;

    /** When non-empty, reduce to the N-D Pareto front over these
     *  metric names (direction-folded per the registry). */
    std::vector<std::string> paretoMetrics;

    /** When topMetric is non-empty, keep the topK best rows under it
     *  (direction-aware, best first). */
    std::string topMetric;
    std::size_t topK = 0;

    /** True when no stage is set: the query keeps every row. */
    bool empty() const
    {
        return constraints.empty() && paretoMetrics.empty() &&
               topMetric.empty();
    }

    /** Decode a query.json document (readJson below). */
    static StoreQuery fromJson(const JsonValue &doc);
};

/**
 * The query.json document, and the body of a /query request: an
 * optional "format" (a whole number equal to kFormatVersion, checked
 * before any cast) and the refine members, each optional and written
 * only when set:
 *
 *  - "constraints": an array of clauses, each a "metric<bound" string
 *    (ConstraintClause::parse) or a {"metric", "op", "bound"} object;
 *  - "pareto": a non-empty array of metric names;
 *  - "top_k": {"metric": <name>, "k": <whole number in [1, 2^53]>}.
 *
 * Every metric name must be registered. Reading refuses any other
 * member, at any depth, by name (store/serialize.hh).
 */
void writeJson(JsonWriter &w, const StoreQuery &query);
void readJson(JsonReader &r, StoreQuery &query);

/** Read `m`, a config's "constraints", "pareto" or "top_k" member,
 *  into `query` through the query table, so a config's refine keys
 *  read exactly as query.json's do. */
void readRefineMember(Member &m, StoreQuery &query);

/**
 * The value of metric `m` for every row, in row order. selectRows asks
 * for each metric a query names; a source may build the column on
 * demand (applyQuery) or hand out a prebuilt one (serve::StoreIndex).
 */
using ColumnSource =
    std::function<const std::vector<double> &(const metrics::Metric &m)>;

/**
 * The refine engine: the rows of a `rows`-row result set that `query`
 * keeps, as row indices in output order. Every metric name is resolved
 * against the registry (fatal with the "store query" context when
 * unknown, as is a top-k of k = 0) and read through `column`. Stages:
 *
 *  - constraints keep the rows for which every clause holds(), in row
 *    order;
 *  - Pareto first drops rows with a NaN in any named metric (an
 *    unordered value can neither dominate nor be dominated), then
 *    keeps the paretoFrontND front over the direction-folded columns
 *    (Metric::ascending), in row order, exact duplicates all kept;
 *  - top-k drops rows whose metric is NaN, stable-sorts the rest on
 *    the folded value (ties keep their order) and keeps the first k,
 *    best first.
 */
std::vector<std::size_t> selectRows(const StoreQuery &query,
                                    std::size_t rows,
                                    const ColumnSource &column);

/** Apply a query to in-memory results: selectRows over columns built
 *  for the metrics the query names, each once, and the kept rows
 *  copied out in output order. */
std::vector<EvalResult> applyQuery(const std::vector<EvalResult> &results,
                                   const StoreQuery &query);

/** loadResults + applyQuery over a store directory. */
std::vector<EvalResult> queryStore(const std::string &dir,
                                   const StoreQuery &query);

} // namespace store
} // namespace nvmexp

#endif // NVMEXP_STORE_RESULT_STORE_HH
