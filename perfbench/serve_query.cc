/**
 * @file
 * The serve-query workload: a QueryServer over the 1536-row store that
 * sweep-store writes, loaded by a closed loop of keep-alive clients
 * (each sends its next request only after the last reply, the way
 * dashboard callers wait). Requests cycle through perf_serve's six
 * query shapes from a seed-chosen offset; every served body must equal
 * the offline store::queryStore answer.
 */

#include <array>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "core/parallel_sweep.hh"
#include "fixtures.hh"
#include "serve/http.hh"
#include "serve/index.hh"
#include "serve/server.hh"
#include "store/result_store.hh"
#include "util/json.hh"

namespace perfbench {

namespace fs = std::filesystem;
using namespace nvmexp;

namespace {

struct QueryShape
{
    const char *label;
    const char *json;
};

/** perf_serve's shapes: answers from the whole store (3.4 MB) down to
 *  a handful of rows, so serializer, index and HTTP costs separate. */
constexpr std::array<QueryShape, 6> kShapes = {{
    {"full-store", R"({})"},
    {"filter", R"({"constraints": ["total_power<0.5",
                                   "latency_load<=1.5"]})"},
    {"pareto-2d", R"({"pareto": ["total_power", "read_latency"]})"},
    {"pareto-3d",
     R"({"pareto": ["total_power", "read_latency", "area_mm2"]})"},
    {"top-k", R"({"top_k": {"metric": "read_edp", "k": 8}})"},
    {"pipeline", R"({"constraints": ["latency_load<=2"],
                     "pareto": ["total_power", "read_latency"],
                     "top_k": {"metric": "total_power", "k": 4}})"},
}};

constexpr std::size_t kMaxBodyBytes = 1 << 20;

/** The bytes a keep-alive client puts on the wire for one query. */
std::string
requestBytes(const std::string &body)
{
    return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) +
           "\r\nConnection: keep-alive\r\n\r\n" + body;
}

std::string
spanName(const char *stage, std::size_t shape)
{
    return std::string("serve.") + stage + "." + kShapes[shape].label;
}

class ServeQuery final : public Workload
{
  public:
    explicit ServeQuery(const Options &options) : options_(options) {}

    ~ServeQuery() override { stopServer(); }

    ServeQuery(const ServeQuery &) = delete;
    ServeQuery &operator=(const ServeQuery &) = delete;

    void
    setup(Report &report) override
    {
        storeDir_ = options_.workDir + "/serve-store";
        fs::remove_all(storeDir_);
        // One store for every seed, so the answer sizes (the work per
        // request) are too; the seed picks the request order.
        Options fixture = options_;
        fixture.seed = 0;
        SweepConfig config = storeSweep(fixture);
        config.outDir = storeDir_;
        storeRows_ = ParallelSweepRunner(options_.jobs).run(config).size();

        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            auto rows = store::queryStore(
                storeDir_, store::StoreQuery::fromJson(
                               JsonValue::parse(kShapes[s].json)));
            rows_[s] = rows.size();
            expected_[s] = store::serializeResults(rows);
            if (options_.wrongReference)
                expected_[s] = corrupted(expected_[s]);
        }
        bytesPerSlot_ =
            (double)directoryBytes(storeDir_) / (double)storeRows_;

        serve::ServeOptions serveOptions;
        serveOptions.storeDir = storeDir_;
        serveOptions.port = 0;
        serveOptions.jobs = options_.jobs;
        server_ = std::make_unique<serve::QueryServer>(serveOptions);
        std::string error;
        if (!server_->start(error))
            throw std::runtime_error("serve-query: " + error);
        acceptLoop_ = std::thread([this] { server_->run(); });
        client_ = std::make_unique<serve::HttpClient>(server_->port());

        for (std::size_t s = 0; s < kShapes.size(); ++s)
            report.check(roundTrip(*client_, s));
    }

    void
    measure(Report &report) override
    {
        const std::size_t connections = (std::size_t)options_.jobs;
        const std::size_t offset = options_.seed % kShapes.size();
        struct Tally
        {
            std::vector<double> ms;
            std::uint64_t attempted = 0;
            std::uint64_t failed = 0;
            std::uint64_t rows = 0;
        };
        std::vector<Tally> tallies(connections);
        auto begin = Clock::now();
        auto deadline =
            begin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options_.seconds));
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < connections; ++c) {
            clients.emplace_back([&, c] {
                Tally &tally = tallies[c];
                serve::HttpClient client(server_->port());
                for (std::size_t i = 0; Clock::now() < deadline; ++i) {
                    std::size_t s = (offset + c + i) % kShapes.size();
                    double ms = 0.0;
                    bool ok = roundTrip(client, s, &ms);
                    tally.ms.push_back(ms);
                    ++tally.attempted;
                    if (ok)
                        tally.rows += rows_[s];
                    else
                        ++tally.failed;
                }
            });
        }
        for (auto &client : clients)
            client.join();
        double wallSeconds = msSince(begin) / 1000.0;

        std::vector<double> ms;
        std::uint64_t attempted = 0, failed = 0, rows = 0;
        for (const auto &tally : tallies) {
            ms.insert(ms.end(), tally.ms.begin(), tally.ms.end());
            attempted += tally.attempted;
            failed += tally.failed;
            rows += tally.rows;
        }
        report.count(attempted, failed);
        std::cout << "timed " << attempted << " requests over "
                  << connections << " keep-alive connections\n";
        report.metric("slots_per_s", (double)rows / wallSeconds,
                      "slots/s");
        report.metric("query_rps",
                      (double)(attempted - failed) / wallSeconds, "req/s");
        report.metric("query_ms_p50", median(ms), "ms");
        report.metric("query_ms_p98", percentile(ms, 0.98), "ms");
        report.metric("store_bytes_per_slot", bytesPerSlot_, "B");
    }

    void
    operation(Tracer &tracer, Report &report) override
    {
        tracer.span("serve.pass", [&] {
            for (std::size_t s = 0; s < kShapes.size(); ++s)
                report.check(roundTrip(*client_, s));
        });
    }

    void
    replay(Tracer &tracer, Report &report) override
    {
        auto rows = tracer.span("store.load_results", [&] {
            return store::loadResults(storeDir_);
        });
        std::string error;
        auto index = tracer.span("serve.index_load", [&] {
            return serve::StoreIndex::load(storeDir_, error);
        });
        report.check(rows.size() == storeRows_ && index != nullptr);
        if (!index)
            return;

        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            const std::string raw = requestBytes(kShapes[s].json);
            serve::HttpRequestParser parser(kMaxBodyBytes);
            auto state = tracer.span("serve.http_parse", [&] {
                return parser.consume(raw.data(), raw.size());
            });
            auto query = tracer.span(spanName("query_parse", s), [&] {
                return store::StoreQuery::fromJson(
                    JsonValue::parse(parser.request().body));
            });
            auto answer = tracer.span(spanName("index_query", s),
                                      [&] { return index->query(query); });
            std::string body =
                tracer.span(spanName("answer_serialize", s),
                            [&] { return store::serializeResults(answer); });
            tracer.sample(spanName("answer_bytes", s), (double)body.size());
            tracer.span(spanName("respond", s), [&] {
                return serve::serializeResponse(
                    {200, "application/json", body}, true);
            });
            auto response = tracer.span(spanName("dispatch", s), [&] {
                return server_->dispatch(parser.request());
            });
            double exchangeMs = 0.0;
            bool sent = tracer.span(spanName("round_trip", s), [&] {
                return roundTrip(*client_, s, &exchangeMs);
            });
            tracer.sample(spanName("exchange", s), exchangeMs);
            report.check(state == serve::ParseState::Done &&
                         body == expected_[s] && response.status == 200 &&
                         response.body == expected_[s] && sent);
        }
    }

    void
    layerMetrics(const Tracer &tracer, Report &report) override
    {
        report.metric("store.load_results_ms",
                      tracer.median("store.load_results"), "ms");
        report.metric("serve.index_load_ms",
                      tracer.median("serve.index_load"), "ms");
        report.metric("serve.http_parse_us",
                      tracer.median("serve.http_parse") * 1e3, "us");
        for (std::size_t s = 0; s < kShapes.size(); ++s) {
            std::string label = kShapes[s].label;
            report.metric("serve.query_parse_us." + label,
                          tracer.median(spanName("query_parse", s)) * 1e3,
                          "us");
            report.metric("serve.index_query_ms." + label,
                          tracer.median(spanName("index_query", s)), "ms");
            report.metric("serve.answer_serialize_ms." + label,
                          tracer.median(spanName("answer_serialize", s)),
                          "ms");
            report.metric("serve.answer_bytes." + label,
                          tracer.median(spanName("answer_bytes", s)), "B");
            report.metric("serve.respond_us." + label,
                          tracer.median(spanName("respond", s)) * 1e3,
                          "us");
            double dispatch = tracer.median(spanName("dispatch", s));
            report.metric("serve.dispatch_ms." + label, dispatch, "ms");
            report.metric("serve.transport_ms." + label,
                          tracer.median(spanName("exchange", s)) -
                              dispatch,
                          "ms");
        }
    }

  private:
    /** One request for shape `s`: true when it answered 200 with the
     *  offline body. `elapsedMs` gets the exchange time alone, without
     *  the comparison. */
    bool
    roundTrip(serve::HttpClient &client, std::size_t s,
              double *elapsedMs = nullptr) const
    {
        serve::HttpClientResult result;
        std::string error;
        auto sent = Clock::now();
        bool ok = client.exchange("POST", "/query", kShapes[s].json,
                                  result, error);
        if (elapsedMs)
            *elapsedMs = msSince(sent);
        return ok && result.status == 200 && result.body == expected_[s];
    }

    void
    stopServer()
    {
        client_.reset();
        if (server_)
            server_->stop();
        if (acceptLoop_.joinable())
            acceptLoop_.join();
        server_.reset();
    }

    Options options_;
    std::string storeDir_;
    std::size_t storeRows_ = 0;
    std::array<std::string, kShapes.size()> expected_;
    std::array<std::size_t, kShapes.size()> rows_{};
    double bytesPerSlot_ = 0.0;
    std::unique_ptr<serve::QueryServer> server_;
    std::unique_ptr<serve::HttpClient> client_;
    std::thread acceptLoop_;
};

} // namespace

std::unique_ptr<Workload>
makeServeQuery(const Options &options)
{
    return std::make_unique<ServeQuery>(options);
}

} // namespace perfbench
