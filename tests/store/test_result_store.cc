#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hh"
#include "celldb/tentpole.hh"
#include "core/parallel_sweep.hh"
#include "store/result_store.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace nvmexp {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE((bool)in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path,
           const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &line : lines)
        out << line << '\n';
}

class ResultStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    /** Fresh per-test store directory. */
    std::string
    storeDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "nvmexp_store_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() +
            "_" + name;
        std::filesystem::remove_all(dir);
        return dir;
    }

    /** 2 cells x 1 capacity x 2 targets x 2 traffics = 8 eval slots. */
    SweepConfig
    smallSweep()
    {
        CellCatalog catalog;
        SweepConfig config;
        config.cells = {CellCatalog::sram16(),
                        catalog.optimistic(CellTech::STT)};
        config.capacitiesBytes = {1.0 * 1024 * 1024};
        config.targets = {OptTarget::ReadEDP, OptTarget::Area};
        config.traffics = {
            TrafficPattern::fromByteRates("hot", 2e9, 2e7, 512),
            TrafficPattern::fromByteRates("cold", 1e8, 1e6, 512),
        };
        config.jobs = 4;
        return config;
    }
};

TEST_F(ResultStoreTest, RepeatedSweepHitsCacheForEveryArray)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("cache");

    ParallelSweepRunner runner(config.jobs);
    auto first = runner.characterize(config);
    store::StoreStats cold = runner.lastStoreStats();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, 4u);   // 2 cells x 2 targets
    EXPECT_EQ(cold.cacheStores, 4u);

    auto second = runner.characterize(config);
    store::StoreStats warm = runner.lastStoreStats();
    // 100% of arrays served from the characterization cache.
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheHits, warm.cacheLookups());
    EXPECT_EQ(warm.cacheHits, 4u);

    // Cache hits preserve values and serial order bit-for-bit.
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(store::identical(first[i], second[i])) << i;

    // The same counters are persisted for offline verification.
    store::StoreStats onDisk = store::loadStats(config.outDir);
    EXPECT_EQ(onDisk.cacheHits, warm.cacheHits);
    EXPECT_EQ(onDisk.cacheMisses, 0u);
}

TEST_F(ResultStoreTest, EnlargedSweepOnlyCharacterizesNewArrays)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("enlarge");

    ParallelSweepRunner runner(config.jobs);
    runner.characterize(config);

    config.capacitiesBytes.push_back(2.0 * 1024 * 1024);
    runner.characterize(config);
    store::StoreStats stats = runner.lastStoreStats();
    EXPECT_EQ(stats.cacheHits, 4u);    // the original capacity
    EXPECT_EQ(stats.cacheMisses, 4u);  // the added capacity
}

TEST_F(ResultStoreTest, CorruptCacheEntryDegradesToMiss)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("corrupt");

    ParallelSweepRunner runner(config.jobs);
    auto first = runner.characterize(config);

    // Truncate one entry mid-file (torn copy / disk trouble): the
    // cache must never become a correctness or availability problem.
    std::string victim;
    for (const auto &entry : std::filesystem::directory_iterator(
             config.outDir + "/cache"))
        victim = entry.path().string();
    ASSERT_FALSE(victim.empty());
    std::string content = readFile(victim);
    std::ofstream(victim, std::ios::trunc)
        << content.substr(0, content.size() / 2);

    auto second = runner.characterize(config);
    store::StoreStats stats = runner.lastStoreStats();
    EXPECT_EQ(stats.cacheMisses, 1u);  // recomputed, not fatal
    EXPECT_EQ(stats.cacheHits, 3u);
    // The victim's whole (cell, capacity) pair re-persists: one
    // entry per target.
    EXPECT_EQ(stats.cacheStores, 2u);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(store::identical(first[i], second[i])) << i;

    // And the rewritten entry serves the next run again.
    runner.characterize(config);
    EXPECT_EQ(runner.lastStoreStats().cacheMisses, 0u);

    // Brace-balanced but unparseable corruption (a flipped byte) must
    // also degrade to a miss rather than abort the sweep.
    std::string flipped = readFile(victim);
    flipped[flipped.find(':')] = ' ';
    std::ofstream(victim, std::ios::trunc) << flipped;
    runner.characterize(config);
    EXPECT_EQ(runner.lastStoreStats().cacheMisses, 1u);
    runner.characterize(config);
    EXPECT_EQ(runner.lastStoreStats().cacheMisses, 0u);
}

/** `text` with every occurrence of `from` replaced by `to`. */
std::string
replaceAll(std::string text, const std::string &from, const std::string &to)
{
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
    return text;
}

/** A cache entry that is still well-formed JSON but not the record a
 *  store writes — a renamed member, a wrong kind, an integer that is
 *  not whole, an unknown enum name — is a miss like a torn one: the
 *  next sweep recomputes and overwrites it instead of dying. */
TEST_F(ResultStoreTest, EditedCacheEntryThatStillParsesDegradesToMiss)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("edited");
    runSweep(config);
    std::string golden = readFile(config.outDir + "/results.json");

    // Any entry holding an array (not a cached negative).
    std::string victim;
    for (const auto &entry : std::filesystem::directory_iterator(
             config.outDir + "/cache")) {
        if (readFile(entry.path().string()).find("\"array\"") !=
            std::string::npos)
            victim = entry.path().string();
    }
    ASSERT_FALSE(victim.empty());
    const std::string original = readFile(victim);

    const std::pair<std::string, std::string> edits[] = {
        {"\"read_latency\":", "\"read_latencx\":"},
        {"\"read_latency\":", "\"read_latency\":\"fast\",\"x\":"},
        {"\"banks\":", "\"banks\":2.5,\"b\":"},
        {"\"banks\":", "\"banks\":1e300,\"b\":"},
        {"\"rows\":", "\"rows\":-1,\"r\":"},
        {"\"tech\":\"", "\"tech\":\"Unobtainium"},
        {"\"mlc_capable\":", "\"mlc_capable\":0,\"m\":"},
    };
    for (const auto &[from, to] : edits) {
        SCOPED_TRACE(to);
        std::string edited = replaceAll(original, from, to);
        ASSERT_NE(edited, original);
        std::ofstream(victim, std::ios::trunc) << edited;

        config.resume = false;
        auto results = runSweep(config);
        EXPECT_EQ(store::loadStats(config.outDir).cacheMisses, 1u);
        EXPECT_EQ(readFile(victim), original);  // recomputed, rewritten
        EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);
    }
}

/** Journal numbers are checked as doubles before any cast: a slot that
 *  is not a whole number makes its line torn (skipped, recomputed on
 *  resume), and a header whose format or slot count is not one is not
 *  ok. Before the check, 1e300 cast to slot 0 and 2.5 to slot 2. */
TEST_F(ResultStoreTest, JournalNumbersThatAreNotWholeAreTorn)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("journal_numbers");
    runSweep(config);
    std::string journal = config.outDir + "/checkpoint.jsonl";
    const auto lines = readLines(journal);
    ASSERT_EQ(lines.size(), 1u + 8u);
    // Workers journal in completion order: find slot 0's line.
    const std::string slotZero = "{\"slot\":0,";
    std::size_t victim = 1;
    while (victim < lines.size() && lines[victim].rfind(slotZero, 0) != 0)
        ++victim;
    ASSERT_LT(victim, lines.size());

    for (const char *slot : {"1e300", "2.5", "-1", "NaN", "Infinity",
                             "-Infinity", "\"0\""}) {
        SCOPED_TRACE(slot);
        auto edited = lines;
        edited[victim] = "{\"slot\":" + std::string(slot) + "," +
            lines[victim].substr(slotZero.size());
        writeLines(journal, edited);
        store::CheckpointScan scan = store::scanCheckpoint(config.outDir);
        ASSERT_TRUE(scan.headerOk);
        EXPECT_EQ(scan.entries.size(), 7u);
        for (const auto &entry : scan.entries)
            EXPECT_NE(entry.slot, 0u);
    }

    const std::string header = lines[0];
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"slots\":8", "\"slots\":1e300"},
             {"\"slots\":8", "\"slots\":8.5"},
             {"\"slots\":8", "\"slots\":-8"},
             {"\"format\":2", "\"format\":2.5"},
             {"\"format\":2", "\"format\":1e300"},
             {"\"format\":2", "\"format\":NaN"}}) {
        SCOPED_TRACE(to);
        auto edited = lines;
        edited[0] = replaceAll(header, from, to);
        ASSERT_NE(edited[0], header);
        writeLines(journal, edited);
        store::CheckpointScan scan = store::scanCheckpoint(config.outDir);
        EXPECT_TRUE(scan.headerParsed);
        EXPECT_FALSE(scan.headerOk);
        EXPECT_TRUE(scan.entries.empty());
    }

    // Resume recomputes exactly the slot whose line was refused.
    std::string golden = readFile(config.outDir + "/results.json");
    auto edited = lines;
    edited[victim] = replaceAll(lines[victim], slotZero, "{\"slot\":1e300,");
    writeLines(journal, edited);
    config.resume = true;
    runSweep(config);
    store::StoreStats stats = store::loadStats(config.outDir);
    EXPECT_EQ(stats.checkpointLoaded, 7u);
    EXPECT_EQ(stats.checkpointComputed, 1u);
    EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);
}

/** results.json and stats.json integers are checked before the cast
 *  too; a bad one is fatal, naming the file, the key and the value. */
TEST_F(ResultStoreTest, ArtifactIntegersThatAreNotWholeAreFatalByName)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("artifact_numbers");
    runSweep(config);
    const std::string resultsPath = config.outDir + "/results.json";
    const std::string statsPath = config.outDir + "/stats.json";
    const std::string results = readFile(resultsPath);
    const std::string stats = readFile(statsPath);

    struct Edit
    {
        std::string path, key, value;
    };
    const Edit edits[] = {
        {resultsPath, "bits_per_cell", "2.5"},
        {resultsPath, "node_nm", "1e300"},
        {resultsPath, "word_bits", "-1"},
        {resultsPath, "sensed_bits", "NaN"},
        {resultsPath, "format", "2.5"},
        {statsPath, "cache_hits", "1e300"},
        {statsPath, "checkpoint_computed", "2.5"},
        {statsPath, "format", "Infinity"},
    };
    for (const auto &edit : edits) {
        SCOPED_TRACE(edit.key + " = " + edit.value);
        const std::string &text = edit.path == resultsPath ? results : stats;
        std::string needle = "\"" + edit.key + "\": ";
        std::size_t at = text.find(needle);
        ASSERT_NE(at, std::string::npos);
        at += needle.size();
        std::string edited = text.substr(0, at) + edit.value +
            text.substr(text.find_first_of(",\n", at));
        std::ofstream(edit.path, std::ios::trunc) << edited;

        std::string error = fatalMessage([&] {
            store::loadResults(config.outDir);
            store::loadStats(config.outDir);
        });
        EXPECT_NE(error.find(edit.path), std::string::npos) << error;
        // A top-level member is named in quotes, a nested one by its
        // path (results[0].array.node_nm).
        EXPECT_TRUE(error.find("\"" + edit.key + "\" ") != std::string::npos ||
                    error.find("." + edit.key + ": ") != std::string::npos)
            << error;
        std::ofstream(edit.path, std::ios::trunc) << text;
    }
    EXPECT_EQ(fatalMessage([&] {
                  store::loadResults(config.outDir);
                  store::loadStats(config.outDir);
              }),
              "");
}

/** stats.json takes each member once and no other: an unknown or a
 *  repeated member is fatal, naming the file and the member. */
TEST_F(ResultStoreTest, StatsMembersAreKnownAndOnce)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("stats_members");
    runSweep(config);
    const std::string path = config.outDir + "/stats.json";
    const std::string stats = readFile(path);
    const std::string last = "\"checkpoint_computed\": 8\n";
    ASSERT_NE(stats.find(last), std::string::npos) << stats;
    for (const std::string member : {"cache_hit", "cache_hits"}) {
        SCOPED_TRACE(member);
        std::ofstream(path, std::ios::trunc) << replaceAll(
            stats, last, "\"checkpoint_computed\": 8,\n  \"" + member +
                "\": 0\n");
        std::string error =
            fatalMessage([&] { store::loadStats(config.outDir); });
        EXPECT_NE(error.find(path), std::string::npos) << error;
        EXPECT_NE(error.find(" member "), std::string::npos) << error;
        EXPECT_NE(error.find(member), std::string::npos) << error;
    }
}

/** So does the journal header: one with an unknown or a repeated
 *  member is not ok, so resume restarts the journal and recomputes
 *  every slot, to the same bytes. */
TEST_F(ResultStoreTest, HeaderMembersAreKnownAndOnce)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("header_members");
    runSweep(config);
    const std::string journal = config.outDir + "/checkpoint.jsonl";
    const std::string golden = readFile(config.outDir + "/results.json");
    const auto lines = readLines(journal);
    for (const char *tail : {",\"note\":1}", ",\"slots\":8}"}) {
        SCOPED_TRACE(tail);
        auto edited = lines;
        edited[0].replace(edited[0].size() - 1, 1, tail);
        writeLines(journal, edited);
        EXPECT_FALSE(store::scanCheckpoint(config.outDir).headerOk);

        SweepConfig resumed = config;
        resumed.resume = true;
        runSweep(resumed);
        store::StoreStats stats = store::loadStats(config.outDir);
        EXPECT_EQ(stats.checkpointLoaded, 0u);
        EXPECT_EQ(stats.checkpointComputed, 8u);
        EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);
    }
}

TEST_F(ResultStoreTest, RunSweepPersistsLoadableResults)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("artifacts");

    auto results = runSweep(config);
    ASSERT_EQ(results.size(), 8u);

    auto loaded = store::loadResults(config.outDir);
    ASSERT_EQ(loaded.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(store::identical(results[i], loaded[i])) << i;

    // CSV: header + one row per result.
    auto csv = readLines(config.outDir + "/results.csv");
    ASSERT_EQ(csv.size(), 1u + results.size());
    EXPECT_NE(csv[0].find("lifetime_sec"), std::string::npos);
}

TEST_F(ResultStoreTest, DecodedReliabilitySweepHoldsNoLargeReserve)
{
    // The first row (spec "none") encodes shorter than the rest, so
    // sizing the vector from it alone over-reserves.
    SweepConfig config = testsupport::reliabilitySweep();
    config.outDir = storeDir("reliability");
    auto results = ParallelSweepRunner(4).run(config);

    auto loaded = store::loadResults(config.outDir);
    ASSERT_EQ(loaded.size(), results.size());
    EXPECT_LE(loaded.capacity(), loaded.size() + loaded.size() / 8);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(store::identical(results[i], loaded[i])) << i;
}

TEST_F(ResultStoreTest, InterruptedSweepResumesByteIdentically)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("uninterrupted");
    runSweep(config);
    std::string golden = readFile(config.outDir + "/results.json");

    // Simulate an interruption: run to completion in a second store,
    // then rewind its journal to header + 3 completed slots and drop
    // the final artifacts, as a kill mid-sweep would leave them.
    config.outDir = storeDir("interrupted");
    runSweep(config);
    std::string journal = config.outDir + "/checkpoint.jsonl";
    auto lines = readLines(journal);
    ASSERT_EQ(lines.size(), 1u + 8u);
    lines.resize(4);
    writeLines(journal, lines);
    std::filesystem::remove(config.outDir + "/results.json");
    std::filesystem::remove(config.outDir + "/results.csv");

    config.resume = true;
    auto resumed = runSweep(config);
    EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);

    store::StoreStats stats = store::loadStats(config.outDir);
    EXPECT_EQ(stats.checkpointLoaded, 3u);
    EXPECT_EQ(stats.checkpointComputed, 5u);
    EXPECT_EQ(stats.cacheHits, 4u);  // characterization fully cached
}

TEST_F(ResultStoreTest, TornTrailingJournalLineIsSkipped)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("torn");
    auto fresh = runSweep(config);
    std::string golden = readFile(config.outDir + "/results.json");

    // A real mid-write kill leaves a partial final line with NO
    // trailing newline — including tears that happen to stop right
    // after a nested closing brace (structurally unbalanced, but
    // first/last-character checks would accept them).
    std::string journal = config.outDir + "/checkpoint.jsonl";
    auto lines = readLines(journal);
    lines.resize(3);
    writeLines(journal, lines);
    {
        std::ofstream torn(journal, std::ios::app);
        torn << "{\"slot\":7,\"result\":{\"x\":1}";
    }

    config.resume = true;
    auto resumed = runSweep(config);
    ASSERT_EQ(resumed.size(), fresh.size());
    EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);
    EXPECT_EQ(store::loadStats(config.outDir).checkpointLoaded, 2u);

    // The resume rewrote the journal (torn bytes gone, fresh entries
    // not merged into them), so a further resume replays every slot.
    auto again = runSweep(config);
    EXPECT_EQ(again.size(), fresh.size());
    EXPECT_EQ(readFile(config.outDir + "/results.json"), golden);
    store::StoreStats stats = store::loadStats(config.outDir);
    EXPECT_EQ(stats.checkpointLoaded, 8u);
    EXPECT_EQ(stats.checkpointComputed, 0u);
}

TEST_F(ResultStoreTest, CheckpointFromDifferentSweepIsDiscarded)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("fingerprint");
    runSweep(config);

    // Same store, different traffic: the journal must not be replayed.
    SweepConfig changed = config;
    changed.traffics[0].readsPerSec *= 2.0;
    changed.resume = true;
    auto results = runSweep(changed);

    store::StoreStats stats = store::loadStats(changed.outDir);
    EXPECT_EQ(stats.checkpointLoaded, 0u);
    EXPECT_EQ(stats.checkpointComputed, results.size());

    // And the restarted run matches a store-less reference run.
    SweepConfig reference = changed;
    reference.outDir.clear();
    reference.resume = false;
    auto expected = runSweep(reference);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(store::identical(results[i], expected[i])) << i;
}

TEST_F(ResultStoreTest, QueryStoreFiltersAndExtractsPareto)
{
    SweepConfig config = smallSweep();
    config.outDir = storeDir("query");
    auto results = runSweep(config);

    // Declarative constraint clauses filter rows.
    store::StoreQuery constrained;
    constrained.constraints.add("total_power<1e-15");
    EXPECT_TRUE(store::queryStore(config.outDir, constrained).empty());

    // Named-metric Pareto extraction matches paretoFront over the
    // same accessors.
    store::StoreQuery pareto;
    pareto.paretoMetrics = {"total_power", "read_latency"};
    auto front = store::queryStore(config.outDir, pareto);
    auto expected = paretoFront<EvalResult>(
        results, [](const EvalResult &r) { return r.totalPower; },
        [](const EvalResult &r) { return r.array->readLatency; });
    ASSERT_EQ(front.size(), expected.size());
    for (std::size_t i = 0; i < front.size(); ++i)
        EXPECT_TRUE(store::identical(front[i], expected[i]));

    // Top-k keeps the k best rows under a metric, best first.
    store::StoreQuery top;
    top.topMetric = "total_power";
    top.topK = 3;
    auto best = store::queryStore(config.outDir, top);
    ASSERT_EQ(best.size(), 3u);
    EXPECT_LE(best[0].totalPower, best[1].totalPower);
    EXPECT_LE(best[1].totalPower, best[2].totalPower);
    for (const auto &r : results)
        EXPECT_GE(r.totalPower, best[0].totalPower);
}

TEST_F(ResultStoreTest, StoreQuerySerializesLosslessly)
{
    store::StoreQuery query;
    query.constraints.add("total_power<=0.25");
    query.constraints.add("lifetime_years>=3");
    query.paretoMetrics = {"total_power", "latency_load",
                           "read_latency"};
    query.topMetric = "read_edp";
    query.topK = 7;

    // dump -> parse -> dump is byte-stable, and the reloaded query
    // behaves identically.
    auto written = [](const store::StoreQuery &q) {
        std::string out;
        JsonWriter w(out, 2);
        store::writeJson(w, q);
        return out;
    };
    std::string dumped = written(query);
    store::StoreQuery reloaded =
        store::StoreQuery::fromJson(JsonValue::parse(dumped));
    EXPECT_EQ(written(reloaded), dumped);
    ASSERT_EQ(reloaded.constraints.size(), 2u);
    EXPECT_EQ(reloaded.constraints.clauses()[0].text(),
              "total_power<=0.25");
    EXPECT_EQ(reloaded.paretoMetrics, query.paretoMetrics);
    EXPECT_EQ(reloaded.topMetric, "read_edp");
    EXPECT_EQ(reloaded.topK, 7u);

    SweepConfig config = smallSweep();
    config.outDir = storeDir("query-roundtrip");
    auto results = runSweep(config);
    auto direct = store::applyQuery(results, query);
    auto viaJson = store::applyQuery(results, reloaded);
    ASSERT_EQ(direct.size(), viaJson.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_TRUE(store::identical(direct[i], viaJson[i]));
}

TEST_F(ResultStoreTest, StoreQueryRejectsUnknownKeysFatally)
{
    // The classic typo: "paretto" used to be silently ignored, turning
    // a Pareto query into the full store. It must now name the key.
    EXPECT_EXIT(store::StoreQuery::fromJson(JsonValue::parse(
                    R"({"paretto": ["total_power"]})")),
                ::testing::ExitedWithCode(1),
                "unknown member \"paretto\" \\(known: format, "
                "constraints, pareto, top_k\\)");
    EXPECT_EXIT(store::StoreQuery::fromJson(JsonValue::parse(
                    R"({"constraints": [], "topk":
                        {"metric": "total_power", "k": 3}})")),
                ::testing::ExitedWithCode(1), "unknown member \"topk\"");
    // Non-object documents and format mismatches are diagnosed too.
    EXPECT_EXIT(store::StoreQuery::fromJson(JsonValue::parse("[]")),
                ::testing::ExitedWithCode(1), "must be a JSON object");
    EXPECT_EXIT(store::StoreQuery::fromJson(
                    JsonValue::parse(R"({"format": 999})")),
                ::testing::ExitedWithCode(1), "format");
}

TEST_F(ResultStoreTest, TechCsvColumnEscapesLikeEveryOtherIdentity)
{
    // The tech column now routes through Table::csvEscape like the
    // other string identity columns. Every registered tech name is
    // escape-neutral (no commas/quotes/newlines), so existing goldens
    // stay byte-identical — this pins both halves of that claim.
    for (int t = 0; t < (int)CellTech::NumTech; ++t) {
        std::string name = techName((CellTech)t);
        EXPECT_EQ(Table::csvEscape(name), name) << name;
    }

    SweepConfig config = smallSweep();
    config.outDir = storeDir("techcsv");
    runSweep(config);
    auto lines = readLines(config.outDir + "/results.csv");
    ASSERT_GE(lines.size(), 2u);
    // Column 2 of every data row is the unquoted tech name.
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::size_t c1 = lines[i].find(',');
        std::size_t c2 = lines[i].find(',', c1 + 1);
        ASSERT_NE(c2, std::string::npos);
        std::string tech = lines[i].substr(c1 + 1, c2 - c1 - 1);
        EXPECT_EQ(tech, techName(techFromName(tech))) << lines[i];
    }
}

TEST_F(ResultStoreTest, CharacterizationKeySeparatesDesignPoints)
{
    CellCatalog catalog;
    MemCell cell = catalog.optimistic(CellTech::STT);
    ArrayConfig ac;
    std::string base = store::ResultStore::characterizationKey(
        cell, ac, OptTarget::ReadEDP);
    EXPECT_NE(base, store::ResultStore::characterizationKey(
        cell, ac, OptTarget::Area));
    ArrayConfig bigger = ac;
    bigger.capacityBytes *= 2.0;
    EXPECT_NE(base, store::ResultStore::characterizationKey(
        cell, bigger, OptTarget::ReadEDP));
    MemCell tweaked = cell;
    tweaked.endurance *= 10.0;
    EXPECT_NE(base, store::ResultStore::characterizationKey(
        tweaked, ac, OptTarget::ReadEDP));
    EXPECT_EQ(base, store::ResultStore::characterizationKey(
        cell, ac, OptTarget::ReadEDP));
}

TEST_F(ResultStoreTest, SweepFingerprintTracksResultShapingFields)
{
    SweepConfig config = smallSweep();
    std::string base = store::sweepFingerprint(config);

    SweepConfig sameResults = config;
    sameResults.jobs = 1;
    sameResults.outDir = "elsewhere";
    sameResults.resume = true;
    EXPECT_EQ(base, store::sweepFingerprint(sameResults));

    SweepConfig different = config;
    different.traffics.pop_back();
    EXPECT_NE(base, store::sweepFingerprint(different));
    different = config;
    different.wordBits = 256;
    EXPECT_NE(base, store::sweepFingerprint(different));
}

} // namespace
} // namespace nvmexp
