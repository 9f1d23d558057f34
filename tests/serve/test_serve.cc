#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/fixtures.hh"
#include "core/parallel_sweep.hh"
#include "serve/server.hh"
#include "store/result_store.hh"
#include "util/json.hh"

namespace nvmexp {
namespace {

/** The store directory every suite member serves (built once). */
const std::string &
sharedStore()
{
    static const std::string dir = [] {
        setQuiet(true);
        std::string path =
            ::testing::TempDir() + "nvmexp_serve_shared_store";
        std::filesystem::remove_all(path);
        SweepConfig config = testsupport::smallSweep();
        config.outDir = path;
        config.jobs = 4;
        runSweep(config);
        setQuiet(false);
        return path;
    }();
    return dir;
}

/** A QueryServer started on an ephemeral port with its accept loop on
 *  a dedicated thread; stops and joins on destruction. */
class RunningServer
{
  public:
    explicit RunningServer(serve::ServeOptions options)
        : server_(std::move(options))
    {
        std::string error;
        started_ = server_.start(error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            thread_ = std::thread([this] { server_.run(); });
    }

    ~RunningServer()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
    }

    serve::QueryServer &server() { return server_; }
    int port() { return server_.port(); }
    bool started() const { return started_; }

  private:
    serve::QueryServer server_;
    std::thread thread_;
    bool started_ = false;
};

serve::ServeOptions
sharedOptions()
{
    serve::ServeOptions options;
    options.storeDir = sharedStore();
    options.port = 0;
    options.jobs = 4;
    return options;
}

/** POST `body` to /query and return the response. */
serve::HttpClientResult
postQuery(int port, const std::string &body)
{
    serve::HttpClientResult result;
    std::string error;
    EXPECT_TRUE(serve::httpExchange(port, "POST", "/query", body,
                                    result, error))
        << error;
    return result;
}

/** What the offline path answers for the same wire-format query. */
std::string
offlineAnswer(const std::string &queryJson)
{
    store::StoreQuery query =
        store::StoreQuery::fromJson(JsonValue::parse(queryJson));
    return store::serializeResults(
        store::queryStore(sharedStore(), query));
}

/** The message of an error body, which must be exactly
 *  {"error": "<message>"}. */
std::string
errorOf(const std::string &body)
{
    JsonReader reader(body);
    std::string_view name;
    reader.beginObject();
    EXPECT_TRUE(reader.nextMember(name) && name == "error") << body;
    std::string message(reader.string());
    EXPECT_FALSE(reader.nextMember(name)) << body;
    reader.end();
    return message;
}

class ServeTest : public testsupport::QuietTest
{
};

TEST_F(ServeTest, HealthzReportsStoreFingerprintRowsAndFormat)
{
    RunningServer running(sharedOptions());
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(serve::httpExchange(running.port(), "GET", "/healthz",
                                    "", result, error))
        << error;
    EXPECT_EQ(result.status, 200);

    std::string fingerprint;
    ASSERT_TRUE(serve::readStoreFingerprint(sharedStore(), fingerprint));
    EXPECT_EQ(result.body, "{\n  \"status\": \"ok\",\n  \"fingerprint\": \"" +
                               fingerprint +
                               "\",\n  \"rows\": 16,\n  \"format\": " +
                               std::to_string(store::kFormatVersion) +
                               "\n}\n");
}

TEST_F(ServeTest, ConcurrentQueriesAreByteIdenticalToOffline)
{
    // The acceptance differential: >= 8 concurrent client threads,
    // each hammering a different query shape, and every single
    // response must match the offline CLI path byte for byte.
    const std::vector<std::string> queries = {
        R"({})",
        R"({"constraints": ["total_power<0.2"]})",
        R"({"pareto": ["total_power", "read_latency"]})",
        R"({"pareto": ["total_power", "read_latency", "area_mm2"]})",
        R"({"top_k": {"metric": "read_edp", "k": 5}})",
        R"({"constraints": ["latency_load<=1.5"],
            "pareto": ["total_power", "read_latency"],
            "top_k": {"metric": "total_power", "k": 3}})",
        R"({"constraints": ["lifetime_years>=1"]})",
        R"({"top_k": {"metric": "lifetime_years", "k": 4}})",
    };
    std::vector<std::string> expected;
    expected.reserve(queries.size());
    for (const auto &q : queries)
        expected.push_back(offlineAnswer(q));

    RunningServer running(sharedOptions());
    constexpr int kThreads = 8;
    constexpr int kRequestsPerThread = 10;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kRequestsPerThread; ++i) {
                std::size_t pick =
                    ((std::size_t)t + (std::size_t)i) % queries.size();
                serve::HttpClientResult result;
                std::string error;
                if (!serve::httpExchange(running.port(), "POST",
                                         "/query", queries[pick],
                                         result, error) ||
                    result.status != 200 ||
                    result.body != expected[pick]) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(running.server().counters().queries,
              (std::uint64_t)(kThreads * kRequestsPerThread));
}

TEST_F(ServeTest, MalformedAndUnknownQueriesGetStructured400s)
{
    RunningServer running(sharedOptions());

    // Malformed JSON body.
    auto malformed = postQuery(running.port(), "{\"constraints\": [");
    EXPECT_EQ(malformed.status, 400);
    EXPECT_FALSE(errorOf(malformed.body).empty());

    // The typo'd key that used to silently return the full store.
    auto typo =
        postQuery(running.port(), R"({"paretto": ["total_power"]})");
    EXPECT_EQ(typo.status, 400);
    EXPECT_NE(errorOf(typo.body).find("unknown member \"paretto\""),
              std::string::npos)
        << typo.body;

    // Unknown metric names inside a known key.
    auto unknownMetric = postQuery(
        running.port(), R"({"constraints": ["warp_factor<0.5"]})");
    EXPECT_EQ(unknownMetric.status, 400);
    EXPECT_NE(unknownMetric.body.find("warp_factor"),
              std::string::npos);

    // Wrong methods and unknown endpoints.
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(serve::httpExchange(running.port(), "GET", "/query", "",
                                    result, error));
    EXPECT_EQ(result.status, 405);
    ASSERT_TRUE(serve::httpExchange(running.port(), "POST", "/healthz",
                                    "", result, error));
    EXPECT_EQ(result.status, 405);
    ASSERT_TRUE(serve::httpExchange(running.port(), "GET", "/nope", "",
                                    result, error));
    EXPECT_EQ(result.status, 404);

    // The server survived every error and still answers correctly.
    auto ok = postQuery(running.port(), "{}");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, offlineAnswer("{}"));
    EXPECT_GE(running.server().counters().badRequests, 5u);
}

TEST_F(ServeTest, OversizedBodiesGet413)
{
    serve::ServeOptions options = sharedOptions();
    options.maxBodyBytes = 64;
    RunningServer running(options);

    std::string big = R"({"constraints": [)";
    while (big.size() <= 64)
        big += R"("total_power<0.5", )";
    big += "]}";
    auto result = postQuery(running.port(), big);
    EXPECT_EQ(result.status, 413);
    EXPECT_NE(result.body.find("too large"), std::string::npos);

    auto ok = postQuery(running.port(), "{}");
    EXPECT_EQ(ok.status, 200);
}

TEST_F(ServeTest, DroppedConnectionMidRequestIsCountedNotFatal)
{
    RunningServer running(sharedOptions());

    // Open a raw socket, send half a request, and hang up.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((uint16_t)running.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, (const sockaddr *)&addr, sizeof(addr)), 0);
    std::string partial = "POST /query HTTP/1.1\r\nContent-Length: 999";
    ASSERT_TRUE(serve::sendAll(fd, partial));
    ::close(fd);

    // The worker notices the hangup, records it, and keeps serving.
    for (int i = 0; i < 100; ++i) {
        if (running.server().counters().dropped > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(running.server().counters().dropped, 1u);
    auto ok = postQuery(running.port(), "{}");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, offlineAnswer("{}"));
}

TEST_F(ServeTest, ReloadSwapsIndexAndRejectsTornStores)
{
    // A private store copy this test may corrupt and restore.
    std::string dir =
        ::testing::TempDir() + "nvmexp_serve_reload_store";
    std::filesystem::remove_all(dir);
    std::filesystem::copy(sharedStore(), dir,
                          std::filesystem::copy_options::recursive);

    serve::ServeOptions options = sharedOptions();
    options.storeDir = dir;
    RunningServer running(options);

    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(serve::httpExchange(running.port(), "POST", "/reload",
                                    "", result, error));
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.body.rfind("{\n  \"status\": \"reloaded\",\n  "
                                "\"fingerprint\": \"",
                                0),
              0u)
        << result.body;

    // Tear results.json mid-write: the reload must be refused with a
    // 409 and the previous index must keep serving identical bytes.
    std::string resultsJson;
    {
        std::ifstream in(dir + "/results.json");
        resultsJson.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(dir + "/results.json", std::ios::trunc);
        out << resultsJson.substr(0, resultsJson.size() / 2);
    }
    ASSERT_TRUE(serve::httpExchange(running.port(), "POST", "/reload",
                                    "", result, error));
    EXPECT_EQ(result.status, 409);
    EXPECT_FALSE(errorOf(result.body).empty());
    auto ok = postQuery(running.port(), "{}");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, offlineAnswer("{}"));

    // Restored store reloads cleanly again.
    {
        std::ofstream out(dir + "/results.json", std::ios::trunc);
        out << resultsJson;
    }
    ASSERT_TRUE(serve::httpExchange(running.port(), "POST", "/reload",
                                    "", result, error));
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(running.server().counters().reloads, 2u);
    EXPECT_EQ(running.server().counters().reloadFailures, 1u);
}

TEST_F(ServeTest, SignalFlagTriggersReloadAtNextAcceptTick)
{
    RunningServer running(sharedOptions());
    EXPECT_EQ(running.server().counters().reloads, 0u);
    // What the SIGHUP handler calls; the accept loop polls the flag
    // every timeout tick (200 ms).
    serve::QueryServer::requestReloadFromSignal();
    for (int i = 0; i < 100; ++i) {
        if (running.server().counters().reloads > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(running.server().counters().reloads, 1u);
}

TEST_F(ServeTest, ConcurrentQueriesAndReloadsStaySafeAndIdentical)
{
    // Readers drain on the old index while reloads swap in fresh ones;
    // under TSan this pins the shared_ptr handoff as race-free, and in
    // every build each response must still match the offline bytes.
    const std::string queryJson =
        R"({"pareto": ["total_power", "read_latency"]})";
    const std::string expected = offlineAnswer(queryJson);

    RunningServer running(sharedOptions());
    std::atomic<bool> done{false};
    std::atomic<int> mismatches{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&] {
            while (!done.load()) {
                serve::HttpClientResult result;
                std::string error;
                if (!serve::httpExchange(running.port(), "POST",
                                         "/query", queryJson, result,
                                         error) ||
                    result.status != 200 || result.body != expected) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    std::thread reloader([&] {
        while (!done.load()) {
            serve::HttpClientResult result;
            std::string error;
            if (!serve::httpExchange(running.port(), "POST", "/reload",
                                     "", result, error) ||
                result.status != 200) {
                mismatches.fetch_add(1);
            }
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    done.store(true);
    for (auto &client : clients)
        client.join();
    reloader.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(running.server().counters().queries, 0u);
    EXPECT_GT(running.server().counters().reloads, 0u);
    EXPECT_EQ(running.server().counters().reloadFailures, 0u);
}

TEST_F(ServeTest, KeepAliveServesManyRequestsOnOneConnection)
{
    RunningServer running(sharedOptions());
    const std::string expected = offlineAnswer("{}");

    serve::HttpClient client(running.port());
    for (int i = 0; i < 5; ++i) {
        serve::HttpClientResult result;
        std::string error;
        ASSERT_TRUE(client.exchange("POST", "/query", "{}", result,
                                    error))
            << error;
        EXPECT_EQ(result.status, 200);
        EXPECT_EQ(result.body, expected);
        EXPECT_EQ(result.headers.at("connection"), "keep-alive");
        EXPECT_TRUE(client.connected());
    }
    // Five requests, one connection, zero drops: a keep-alive client
    // going away between requests is a clean close.
    client.disconnect();
    auto ok = postQuery(running.port(), "{}");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(running.server().counters().dropped, 0u);
}

TEST_F(ServeTest, RequestCapClosesAndClientReconnects)
{
    serve::ServeOptions options = sharedOptions();
    options.maxRequestsPerConnection = 2;
    RunningServer running(options);

    serve::HttpClient client(running.port());
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(client.exchange("GET", "/healthz", "", result, error))
        << error;
    EXPECT_EQ(result.headers.at("connection"), "keep-alive");
    // The capped request is answered, with close, and the server hangs
    // up afterwards.
    ASSERT_TRUE(client.exchange("GET", "/healthz", "", result, error))
        << error;
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.headers.at("connection"), "close");
    EXPECT_FALSE(client.connected());
    // The next exchange transparently opens a fresh connection.
    ASSERT_TRUE(client.exchange("GET", "/healthz", "", result, error))
        << error;
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(running.server().counters().dropped, 0u);
}

TEST_F(ServeTest, IdleKeepAliveTimeoutIsACleanCloseNotADrop)
{
    serve::ServeOptions options = sharedOptions();
    options.keepAliveTimeoutMillis = 150;
    RunningServer running(options);

    serve::HttpClient client(running.port());
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(client.exchange("GET", "/healthz", "", result, error))
        << error;
    EXPECT_EQ(result.headers.at("connection"), "keep-alive");

    // Sit past the idle window; the server recycles the worker without
    // counting a drop, and the client recovers by reconnecting.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ASSERT_TRUE(client.exchange("GET", "/healthz", "", result, error))
        << error;
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(running.server().counters().dropped, 0u);
}

TEST_F(ServeTest, IdleKeepAliveConnectionYieldsItsWorker)
{
    // One worker and a long idle window: a kept-alive connection that
    // sits idle must give the worker up to a client with a request
    // instead of making it wait out the window.
    serve::ServeOptions options = sharedOptions();
    options.jobs = 1;
    options.keepAliveTimeoutMillis = 20000;
    RunningServer running(options);
    const std::string expected = offlineAnswer("{}");

    serve::HttpClient idle(running.port());
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(idle.exchange("POST", "/query", "{}", result, error))
        << error;
    EXPECT_EQ(result.headers.at("connection"), "keep-alive");

    auto begin = std::chrono::steady_clock::now();
    serve::HttpClient waiting(running.port());
    ASSERT_TRUE(waiting.exchange("POST", "/query", "{}", result, error))
        << error;
    EXPECT_EQ(result.body, expected);
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(5));

    // The idle client's next exchange reconnects transparently; the
    // yield is a clean close, not a drop.
    waiting.disconnect();
    ASSERT_TRUE(idle.exchange("POST", "/query", "{}", result, error))
        << error;
    EXPECT_EQ(result.body, expected);
    EXPECT_EQ(running.server().counters().dropped, 0u);
}

TEST_F(ServeTest, ExplicitConnectionCloseStillHonored)
{
    RunningServer running(sharedOptions());
    // httpExchange sends "Connection: close" and reads to EOF: the
    // pre-keep-alive contract must keep working bytes-for-bytes.
    serve::HttpClientResult result;
    std::string error;
    ASSERT_TRUE(serve::httpExchange(running.port(), "POST", "/query",
                                    "{}", result, error))
        << error;
    EXPECT_EQ(result.status, 200);
    EXPECT_EQ(result.headers.at("connection"), "close");
    EXPECT_EQ(result.body, offlineAnswer("{}"));
}

} // namespace
} // namespace nvmexp
