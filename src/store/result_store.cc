#include "store/result_store.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "metrics/metric.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace nvmexp {
namespace store {

namespace {

constexpr Field<StoreStats> kStatsFields[] = {
    kFormatField<StoreStats>,
    field<&StoreStats::cacheHits>("cache_hits"),
    field<&StoreStats::cacheMisses>("cache_misses"),
    field<&StoreStats::cacheStores>("cache_stores"),
    field<&StoreStats::checkpointLoaded>("checkpoint_loaded"),
    field<&StoreStats::checkpointComputed>("checkpoint_computed"),
};

constexpr Field<CheckpointHeader> kHeaderFields[] = {
    field<&CheckpointHeader::format>("format"),
    field<&CheckpointHeader::fingerprint>("fingerprint"),
    field<&CheckpointHeader::slots>("slots"),
};

} // namespace

void
writeJson(JsonWriter &w, const StoreStats &stats)
{
    writeFields(w, kStatsFields, stats);
}

void
readJson(JsonReader &r, StoreStats &stats)
{
    readFields(r, kStatsFields, stats);
}

void
writeJson(JsonWriter &w, const CheckpointHeader &header)
{
    writeFields(w, kHeaderFields, header);
}

void
readJson(JsonReader &r, CheckpointHeader &header)
{
    readFields(r, kHeaderFields, header);
}

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xCBF29CE484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

namespace {

std::string
hexHash(const std::string &text)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  (unsigned long long)fnv1a64(text));
    return buffer;
}

} // namespace

std::string
sweepFingerprint(const SweepConfig &config)
{
    std::string text;
    JsonWriter w(text);
    w.beginObject();
    w.key("format").number(kFormatVersion);
    w.key("cells").beginArray();
    for (const auto &cell : config.cells)
        writeJson(w, cell);
    w.endArray();
    w.key("capacities_bytes").beginArray();
    for (double capacity : config.capacitiesBytes)
        w.number(capacity);
    w.endArray();
    w.key("targets").beginArray();
    for (OptTarget target : config.targets)
        w.string(optTargetName(target));
    w.endArray();
    w.key("traffics").beginArray();
    for (const auto &traffic : config.traffics)
        writeJson(w, traffic);
    w.endArray();
    // The reliability axis changes slot count and row annotations, so
    // it guards checkpoint reuse like any other sweep dimension. An
    // empty axis fingerprints as its implicit single default spec —
    // spelling out {ecc: "none"} and omitting the block are the same
    // sweep.
    w.key("reliability").beginArray();
    const std::vector<reliability::ReliabilitySpec> implicit(1);
    for (const auto &spec :
         config.reliability.empty() ? implicit : config.reliability) {
        w.beginObject().key("ecc").string(spec.ecc);
        w.key("scrub_interval_sec").number(spec.scrubIntervalSec);
        w.endObject();
    }
    w.endArray();
    w.key("word_bits").number(config.wordBits);
    w.key("node_nm").number(config.nodeNm);
    w.key("sram_node_nm").number(config.sramNodeNm);
    w.endObject();
    return hexHash(text);
}

ResultStore::ResultStore(std::string dir, std::string cacheDir)
    : dir_(std::move(dir)),
      cacheDir_(cacheDir.empty() ? dir_ + "/cache" : std::move(cacheDir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (!ec)
        std::filesystem::create_directories(cacheDir_, ec);
    if (ec) {
        fatal("result store: cannot create '", dir_, "' (cache '",
              cacheDir_, "'): ", ec.message());
    }
}

std::string
ResultStore::characterizationKey(const MemCell &cell,
                                 const ArrayConfig &config,
                                 OptTarget target)
{
    std::string key;
    JsonWriter w(key);
    w.beginObject();
    w.key("format").number(kFormatVersion);
    w.key("cell");
    writeJson(w, cell);
    w.key("capacity_bytes").number(config.capacityBytes);
    w.key("word_bits").number(config.wordBits);
    w.key("node_nm").number(config.nodeNm);
    w.key("min_area_efficiency").number(config.minAreaEfficiency);
    w.key("max_banks").number(config.maxBanks);
    w.key("target").string(optTargetName(target));
    w.endObject();
    return key;
}

std::string
ResultStore::cachePath(const std::string &key) const
{
    return cacheDir_ + "/" + hexHash(key) + ".json";
}

ResultStore::CacheOutcome
ResultStore::lookupArray(const std::string &key, ArrayResult &out)
{
    // A truncated or corrupt entry (disk trouble, torn copy, an edit)
    // degrades to a miss and gets recomputed and overwritten — the
    // cache is an optimization, never a correctness or availability
    // dependency. The lenient decode refuses any entry that is not a
    // well-formed record, and the byte-exact comparison of the full
    // stored key covers every realistic corruption that still is one.
    std::string text;
    CacheEntry entry;
    CacheOutcome outcome = CacheOutcome::Miss;
    if (readFile(cachePath(key), text) && tryReadJson(text, entry) &&
        entry.key == key) {
        if (entry.invalid) {
            outcome = CacheOutcome::HitInvalid;
        } else {
            out = entry.array;
            outcome = CacheOutcome::Hit;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome == CacheOutcome::Miss)
        ++stats_.cacheMisses;
    else
        ++stats_.cacheHits;
    return outcome;
}

void
ResultStore::storeArray(const std::string &key, const ArrayResult &array)
{
    std::string entry;
    JsonWriter w(entry);
    writeJson(w, CacheEntry{key, false, array});
    entry += '\n';
    // Concurrent writers of one key (duplicate cells in a sweep, or
    // processes sharing a cache directory) each rename a complete
    // file; the last rename wins with a valid entry either way.
    writeFileAtomically(cachePath(key), entry);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cacheStores;
}

void
ResultStore::storeInvalid(const std::string &key)
{
    std::string entry;
    JsonWriter w(entry);
    writeJson(w, CacheEntry{key, true, {}});
    entry += '\n';
    writeFileAtomically(cachePath(key), entry);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cacheStores;
}

std::string
checkpointHeaderLine(const std::string &fingerprint, std::size_t slots)
{
    std::string line;
    JsonWriter w(line);
    writeJson(w, CheckpointHeader{.format = kFormatVersion,
                                  .fingerprint = fingerprint,
                                  .slots = slots});
    return line;
}

namespace {

/** Append one journal entry line, {"slot": n, "result": {...}}\n. */
void
appendCheckpointLine(std::string &out, std::size_t slot,
                     const EvalResult &result)
{
    JsonWriter w(out);
    writeJson(w, JournalLine{slot, &result});
    out += '\n';
}

/** The journal header `line` read leniently. */
CheckpointHeader
readHeaderLine(std::string_view line)
{
    CheckpointHeader header;
    bool malformed = false;
    if (!tryReadJson(line, header, &malformed))
        return {.headerParsed = !malformed};
    header.headerParsed = header.headerOk = true;
    return header;
}

} // namespace

CheckpointHeader
readCheckpointHeader(const std::string &dir)
{
    std::ifstream in(dir + "/checkpoint.jsonl");
    std::string line;
    if (!in || !std::getline(in, line))
        return {};
    return readHeaderLine(line);
}

CheckpointScan
scanCheckpoint(const std::string &dir)
{
    std::string text;
    if (!readFile(dir + "/checkpoint.jsonl", text))
        return {};
    std::size_t end = std::min(text.find('\n'), text.size());
    CheckpointScan scan{readHeaderLine(std::string_view(text).substr(0, end)),
                        {}};
    if (!scan.headerOk)
        return scan;
    JournalEntry entry;
    for (std::size_t begin = end + 1; begin < text.size(); begin = end + 1) {
        end = std::min(text.find('\n', begin), text.size());
        std::string_view line(text.data() + begin, end - begin);
        if (line.empty())
            continue;
        // The last line of an interrupted run may be torn at any
        // byte; only lines that decode whole are trusted.
        if (!tryReadJson(line, entry)) {
            warn("result store: skipping torn checkpoint line");
            continue;
        }
        if (entry.slot < scan.slots)
            scan.entries.push_back(
                {entry.slot, std::string(line), std::move(entry.result)});
    }
    return scan;
}

std::map<std::size_t, EvalResult>
ResultStore::openCheckpoint(const std::string &fingerprint,
                            std::size_t slots, bool resume)
{
    std::string path = dir_ + "/checkpoint.jsonl";
    std::map<std::size_t, EvalResult> done;

    if (resume) {
        CheckpointScan scan = scanCheckpoint(dir_);
        bool match = scan.headerOk && scan.format == kFormatVersion &&
            scan.fingerprint == fingerprint && scan.slots == slots;
        if (match) {
            for (auto &entry : scan.entries)
                done[entry.slot] = std::move(entry.result);
        } else if (scan.headerParsed) {
            warn("result store: checkpoint in '", dir_,
                 "' belongs to a different sweep; restarting");
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.checkpointLoaded = done.size();
    if (!done.empty()) {
        // Rewrite the journal from the validated entries before
        // appending: the original file may end in a torn, newline-less
        // partial write that a plain append would merge with the next
        // entry, corrupting it for any later resume.
        std::string journal = checkpointHeaderLine(fingerprint, slots);
        journal += '\n';
        for (const auto &[slot, result] : done)
            appendCheckpointLine(journal, slot, result);
        writeFileAtomically(path, journal);
        checkpoint_.open(path, std::ios::app);
    } else {
        checkpoint_.open(path, std::ios::trunc);
        checkpoint_ << checkpointHeaderLine(fingerprint, slots) << '\n';
        checkpoint_.flush();
    }
    if (!checkpoint_)
        fatal("result store: cannot write '", path, "'");
    return done;
}

void
ResultStore::checkpointSlot(std::size_t slot, const EvalResult &result)
{
    // Encoded outside the lock into a per-thread buffer that keeps its
    // capacity, so journaling a slot allocates nothing after the first.
    thread_local std::string line;
    line.clear();
    appendCheckpointLine(line, slot, result);
    std::lock_guard<std::mutex> lock(mutex_);
    checkpoint_ << line;
    checkpoint_.flush();
    ++stats_.checkpointComputed;
}

void
ResultStore::closeCheckpoint()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (checkpoint_.is_open())
        checkpoint_.close();
}

const std::vector<CsvColumn> &
resultCsvColumns()
{
    // Identity columns (empty metric) name the design point; every
    // other column evaluates its registry metric, which keeps the
    // header vocabulary, the row values, and --filter/--pareto keys
    // in one system. Headers keep their unit suffixes for external
    // dashboard compatibility.
    static const std::vector<CsvColumn> columns = {
        {"cell", ""},
        {"tech", ""},
        {"traffic", ""},
        {"capacity_bytes", ""},
        {"word_bits", ""},
        {"node_nm", ""},
        {"read_latency_s", "read_latency"},
        {"write_latency_s", "write_latency"},
        {"read_energy_j", "read_energy"},
        {"write_energy_j", "write_energy"},
        {"leakage_w", "leakage"},
        {"area_m2", "area_m2"},
        {"read_bandwidth_bps", "read_bandwidth"},
        {"write_bandwidth_bps", "write_bandwidth"},
        {"dynamic_power_w", "dynamic_power"},
        {"total_power_w", "total_power"},
        {"latency_load", "latency_load"},
        {"lifetime_sec", "lifetime_sec"},
        {"meets_read_bw", "meets_read_bw"},
        {"meets_write_bw", "meets_write_bw"},
        {"viable", "viable"},
        {"ecc_scheme", ""},
        {"scrub_interval_sec", ""},
        {"raw_ber", "raw_ber"},
        {"scrubbed_ber", "scrubbed_ber"},
        {"uncorrectable_word_rate", "uncorrectable_word_rate"},
        {"uncorrectable_image_rate", "uncorrectable_image_rate"},
        {"ecc_overhead", "ecc_overhead"},
    };
    return columns;
}

namespace {

/** Append the cell of one identity (non-metric) CSV column. Unknown
 *  headers are a programming error: the schema and this accessor ship
 *  together. */
void
appendIdentityCsv(std::string &out, const std::string &header,
                  const EvalResult &r)
{
    if (header == "cell")
        out += Table::csvEscape(r.array->cell.name);
    else if (header == "tech")
        out += Table::csvEscape(techName(r.array->cell.tech));
    else if (header == "traffic")
        out += Table::csvEscape(r.traffic->name);
    else if (header == "capacity_bytes")
        JsonWriter::appendNumber(out, r.array->capacityBytes);
    else if (header == "word_bits")
        JsonWriter::appendNumber(out, r.array->wordBits);
    else if (header == "node_nm")
        JsonWriter::appendNumber(out, r.array->nodeNm);
    else if (header == "ecc_scheme")
        out += Table::csvEscape(r.reliability.scheme);
    else if (header == "scrub_interval_sec")
        JsonWriter::appendNumber(out, r.reliability.scrubIntervalSec);
    else
        panic("results.csv schema: identity column '", header,
              "' has no accessor");
}

} // namespace

std::string
serializeResults(const std::vector<EvalResult> &results)
{
    std::string out;
    if (!results.empty()) {
        // One allocation instead of a doubling chain (a copy and fresh
        // pages per step): rows differ only in names and digits, so
        // the first row, at the two extra indent levels it gets inside
        // the envelope, sizes them all, with 1/8 slack.
        std::string first;
        JsonWriter probe(first, 2);
        writeJson(probe, results.front());
        std::size_t lines =
            (std::size_t)std::count(first.begin(), first.end(), '\n') + 1;
        std::size_t row = first.size() + 4 * lines + 2;
        out.reserve((row + row / 8) * results.size() + 64);
    }
    JsonWriter w(out, 2);
    writeJson(w, results);
    out += '\n';
    return out;
}

void
ResultStore::writeResults(const std::vector<EvalResult> &results)
{
    // serializeResults: the query server's responses must be
    // byte-identical to this artifact for the same rows, so both go
    // through the one serializer. Both artifacts are written
    // write-then-rename, so a kill mid-write never leaves a torn file
    // beside a complete journal.
    writeFileAtomically(dir_ + "/results.json", serializeResults(results));

    const auto &columns = resultCsvColumns();
    // Resolve the metric-backed columns once, not per row.
    std::vector<const metrics::Metric *> accessors(columns.size(),
                                                   nullptr);
    for (std::size_t c = 0; c < columns.size(); ++c)
        if (!columns[c].metric.empty())
            accessors[c] = &metrics::MetricRegistry::instance().require(
                columns[c].metric, "results.csv schema");
    std::string csv;
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c)
            csv += ',';
        csv += columns[c].header;
    }
    csv += '\n';
    for (const auto &r : results) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c)
                csv += ',';
            if (accessors[c])
                JsonWriter::appendNumber(csv, accessors[c]->eval(r));
            else
                appendIdentityCsv(csv, columns[c].header, r);
        }
        csv += '\n';
    }
    writeFileAtomically(dir_ + "/results.csv", csv);
}

void
ResultStore::writeStats()
{
    writeStats(stats());
}

void
ResultStore::writeStats(const StoreStats &stats)
{
    writeJsonFile(dir_ + "/stats.json", stats);
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<EvalResult>
loadResults(const std::string &dir)
{
    std::vector<EvalResult> results;
    readJsonFile(dir + "/results.json", results);
    return results;
}

StoreStats
loadStats(const std::string &dir)
{
    StoreStats stats;
    readJsonFile(dir + "/stats.json", stats);
    return stats;
}

namespace {

/** A registered metric's name. */
void
readMetric(Member &m, std::string &name)
{
    m.read(name);
    m.check([&] { metrics::MetricRegistry::instance().require(name); });
}

using metrics::ConstraintClause;

constexpr Field<ConstraintClause> kClauseFields[] = {
    {"metric",
     [](JsonWriter &w, const ConstraintClause &c) { w.string(c.metric); },
     [](Member &m, ConstraintClause &c) { readMetric(m, c.metric); }},
    {"op",
     [](JsonWriter &w, const ConstraintClause &c) {
         w.string(metrics::constraintOpName(c.op));
     },
     [](Member &m, ConstraintClause &c) {
         std::string op;
         m.read(op);
         m.check([&] { c.op = metrics::constraintOpFromName(op); });
     }},
    {"bound",
     [](JsonWriter &w, const ConstraintClause &c) { w.number(c.bound); },
     [](Member &m, ConstraintClause &c) {
         m.read(c.bound);
         if (std::isnan(c.bound))
             m.reject("must not be NaN");
     }},
};

/** "top_k" is an object of two members of the query itself. */
constexpr Field<StoreQuery> kTopFields[] = {
    {"metric",
     [](JsonWriter &w, const StoreQuery &q) { w.string(q.topMetric); },
     [](Member &m, StoreQuery &q) { readMetric(m, q.topMetric); }},
    {"k", [](JsonWriter &w, const StoreQuery &q) { writeValue(w, q.topK); },
     [](Member &m, StoreQuery &q) { m.read(q.topK, 1, kMaxExactInteger); }},
};

void
readConstraints(Member &m, StoreQuery &q)
{
    // The fixed-field object form went away because it ignored
    // unknown keys: {"max_power": 1e-9} filtered nothing. Name the
    // clauses its defaults stood for, so a migration is one edit.
    if (m.kind() != JsonValue::Kind::Array) {
        m.reject("must be an array of clauses, e.g. "
                 "[\"latency_load<=1\", \"meets_read_bw>=1\", "
                 "\"meets_write_bw>=1\"] (the clauses the removed "
                 "fixed-field object implied by default; README "
                 "\"Metrics and filter-and-refine\" maps each of its keys "
                 "to a clause)");
    }
    m.each([&] {
        ConstraintClause clause;
        if (m.kind() == JsonValue::Kind::String) {
            std::string text;
            m.read(text);
            m.check([&] { clause = ConstraintClause::parse(text); });
        } else if (m.kind() == JsonValue::Kind::Object) {
            m.read(kClauseFields, clause);
        } else {
            m.reject("must be a \"metric<bound\" string or a "
                     "{\"metric\", \"op\", \"bound\"} object");
        }
        q.constraints.add(std::move(clause));
    });
}

constexpr Field<StoreQuery> kQueryFields[] = {
    {"format",
     [](JsonWriter &w, const StoreQuery &) { w.number(kFormatVersion); },
     [](Member &m, StoreQuery &) {
         m.readVersion(kFormatVersion,
                       " (the store format this build reads)");
     },
     nullptr, /*optional=*/true},
    {"constraints",
     [](JsonWriter &w, const StoreQuery &q) {
         w.beginArray();
         for (const auto &clause : q.constraints.clauses())
             writeFields(w, kClauseFields, clause);
         w.endArray();
     },
     readConstraints,
     [](const StoreQuery &q) { return !q.constraints.empty(); }},
    {"pareto",
     [](JsonWriter &w, const StoreQuery &q) {
         w.beginArray();
         for (const auto &name : q.paretoMetrics)
             w.string(name);
         w.endArray();
     },
     [](Member &m, StoreQuery &q) {
         m.each([&] { readMetric(m, q.paretoMetrics.emplace_back()); });
         if (q.paretoMetrics.empty())
             m.reject("needs at least one metric name");
     },
     [](const StoreQuery &q) { return !q.paretoMetrics.empty(); }},
    {"top_k",
     [](JsonWriter &w, const StoreQuery &q) {
         writeFields(w, kTopFields, q);
     },
     [](Member &m, StoreQuery &q) { m.read(kTopFields, q); },
     [](const StoreQuery &q) { return !q.topMetric.empty(); }},
};

} // namespace

void
writeJson(JsonWriter &w, const StoreQuery &query)
{
    writeFields(w, kQueryFields, query);
}

void
readJson(JsonReader &r, StoreQuery &query)
{
    if (r.peek() != JsonValue::Kind::Object)
        r.reject("a store query must be a JSON object");
    readFields(r, kQueryFields, query);
}

void
readRefineMember(Member &m, StoreQuery &query)
{
    kQueryFields[fieldIndex(m.reader(), kQueryFields, m.key())].read(
        m, query);
}

StoreQuery
StoreQuery::fromJson(const JsonValue &doc)
{
    StoreQuery query;
    readJson(doc.text(), {}, query);
    return query;
}

std::vector<std::size_t>
selectRows(const StoreQuery &query, std::size_t rows,
           const ColumnSource &column)
{
    const auto &registry = metrics::MetricRegistry::instance();
    auto resolve = [&](const std::string &name) -> const auto & {
        return registry.require(name, "store query");
    };

    // Constraints, in row order.
    const auto &clauses = query.constraints.clauses();
    std::vector<const std::vector<double> *> clauseColumns;
    clauseColumns.reserve(clauses.size());
    for (const auto &clause : clauses)
        clauseColumns.push_back(&column(resolve(clause.metric)));

    std::vector<std::size_t> kept;
    kept.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
        bool pass = true;
        for (std::size_t c = 0; pass && c < clauses.size(); ++c)
            pass = clauses[c].holds((*clauseColumns[c])[row]);
        if (pass)
            kept.push_back(row);
    }

    // Pareto over the direction-folded columns. Rows with a NaN key
    // go first: they would violate paretoFrontND's sort precondition.
    if (!query.paretoMetrics.empty()) {
        std::vector<const std::vector<double> *> cols;
        std::vector<std::function<double(const std::size_t &)>> keys;
        for (const auto &name : query.paretoMetrics) {
            const metrics::Metric &m = resolve(name);
            const std::vector<double> *col = &column(m);
            cols.push_back(col);
            keys.push_back([&m, col](const std::size_t &row) {
                return m.ascending((*col)[row]);
            });
        }
        std::vector<std::size_t> rankable;
        rankable.reserve(kept.size());
        for (std::size_t row : kept) {
            auto nan = [row](const auto *col) { return std::isnan((*col)[row]); };
            if (std::none_of(cols.begin(), cols.end(), nan))
                rankable.push_back(row);
        }
        kept = paretoFrontND(rankable, keys);
    }

    // Top-k: NaN keys dropped, stable sort on the folded key, best
    // first.
    if (!query.topMetric.empty()) {
        const metrics::Metric &m = resolve(query.topMetric);
        const std::vector<double> &col = column(m);
        if (query.topK == 0)
            fatal("store query: k must be a positive count for "
                  "top-k metric '",
                  query.topMetric, "'");

        std::vector<double> keys(kept.size());
        std::vector<std::size_t> order;
        order.reserve(kept.size());
        for (std::size_t i = 0; i < kept.size(); ++i) {
            keys[i] = m.ascending(col[kept[i]]);
            if (!std::isnan(keys[i]))
                order.push_back(i);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t lhs, std::size_t rhs) {
                             return keys[lhs] < keys[rhs];
                         });
        if (order.size() > query.topK)
            order.resize(query.topK);
        for (std::size_t &i : order)
            i = kept[i];
        kept = std::move(order);
    }
    return kept;
}

std::vector<EvalResult>
applyQuery(const std::vector<EvalResult> &results,
           const StoreQuery &query)
{
    std::map<std::string, std::vector<double>> columns;
    auto column = [&](const metrics::Metric &m) -> const auto & {
        auto [it, fresh] = columns.try_emplace(m.name);
        if (fresh) {
            it->second.reserve(results.size());
            for (const auto &r : results)
                it->second.push_back(m.eval(r));
        }
        return it->second;
    };

    std::vector<std::size_t> kept =
        selectRows(query, results.size(), column);
    std::vector<EvalResult> out;
    out.reserve(kept.size());
    for (std::size_t row : kept)
        out.push_back(results[row]);
    return out;
}

std::vector<EvalResult>
queryStore(const std::string &dir, const StoreQuery &query)
{
    return applyQuery(loadResults(dir), query);
}

} // namespace store
} // namespace nvmexp
