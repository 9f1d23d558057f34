#include "serve/server.hh"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "util/json.hh"
#include "util/logging.hh"

namespace nvmexp {
namespace serve {

namespace {

/** Set by requestReloadFromSignal (possibly from a SIGHUP handler),
 *  consumed by every accept loop's next tick. Lock-free atomic: the
 *  only state a signal handler may touch. */
std::atomic<bool> reloadRequested{false};

extern "C" void
sighupHandler(int)
{
    QueryServer::requestReloadFromSignal();
}

void
setRecvTimeout(int fd, int millis)
{
    timeval tv{};
    tv.tv_sec = millis / 1000;
    tv.tv_usec = (millis % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/** A response body: the object `members` writes, pretty-printed,
 *  and a newline. */
template <typename Members>
std::string
jsonBody(Members &&members)
{
    std::string body;
    JsonWriter w(body, 2);
    w.beginObject();
    members(w);
    w.endObject();
    body += '\n';
    return body;
}

std::string
errorBody(const std::string &message)
{
    return jsonBody([&](JsonWriter &w) { w.key("error").string(message); });
}

} // namespace

void
QueryServer::requestReloadFromSignal()
{
    reloadRequested.store(true, std::memory_order_relaxed);
}

void
QueryServer::installSighupHandler()
{
    std::signal(SIGHUP, sighupHandler);
}

QueryServer::QueryServer(ServeOptions options)
    : options_(std::move(options))
{
}

QueryServer::~QueryServer()
{
    stop();
    pool_.reset();  // drain in-flight connections before closing
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

bool
QueryServer::start(std::string &error)
{
    auto index = StoreIndex::load(options_.storeDir, error);
    if (!index)
        return false;
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        index_ = std::move(index);
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error = "socket: " + std::string(std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((uint16_t)options_.port);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(listenFd_, (const sockaddr *)&addr, sizeof(addr)) != 0) {
        error = "bind port " + std::to_string(options_.port) + ": " +
                std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        error = "listen: " + std::string(std::strerror(errno));
        return false;
    }

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, (sockaddr *)&addr, &len) == 0)
        port_ = (int)ntohs(addr.sin_port);

    // A short accept timeout turns the blocking loop into a poll of
    // the stop/reload flags.
    setRecvTimeout(listenFd_, 200);

    pool_ = std::make_unique<ThreadPool>(
        std::max(1, std::min(options_.jobs, ThreadPool::kMaxThreads)));
    return true;
}

void
QueryServer::run()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        if (reloadRequested.exchange(false, std::memory_order_relaxed)) {
            std::string error;
            if (reload(error))
                inform("serve: store re-indexed on signal");
            else
                warn("serve: reload failed: ", error);
        }

        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR) {
                continue;
            }
            warn("serve: accept: ", std::strerror(errno));
            continue;
        }
        waiting_.fetch_add(1, std::memory_order_relaxed);
        bool queued = pool_->submit([this, fd] {
            waiting_.fetch_sub(1, std::memory_order_relaxed);
            handleConnection(fd);
            ::close(fd);
        });
        if (!queued) {
            waiting_.fetch_sub(1, std::memory_order_relaxed);
            ::close(fd);
        }
    }
}

void
QueryServer::stop()
{
    stop_.store(true, std::memory_order_relaxed);
}

bool
QueryServer::reload(std::string &error)
{
    auto fresh = StoreIndex::load(options_.storeDir, error);
    if (!fresh) {
        reloadFailures_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        index_ = std::move(fresh);
    }
    reloads_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::shared_ptr<const StoreIndex>
QueryServer::index() const
{
    std::lock_guard<std::mutex> lock(indexMutex_);
    return index_;
}

ServeCounters
QueryServer::counters() const
{
    ServeCounters out;
    out.queries = queries_.load(std::memory_order_relaxed);
    out.badRequests = badRequests_.load(std::memory_order_relaxed);
    out.reloads = reloads_.load(std::memory_order_relaxed);
    out.reloadFailures =
        reloadFailures_.load(std::memory_order_relaxed);
    out.dropped = dropped_.load(std::memory_order_relaxed);
    out.queryMicros = queryMicros_.load(std::memory_order_relaxed);
    return out;
}

HttpResponse
QueryServer::handleQuery(const HttpRequest &request)
{
    auto begin = std::chrono::steady_clock::now();
    auto snapshot = index();

    HttpResponse response;
    try {
        // Query parsing and metric resolution fatal() on user errors
        // (malformed JSON, unknown keys, unknown metrics); the guard
        // turns each into a structured 400 instead of process exit.
        ScopedFatalThrows guard;
        store::StoreQuery query;
        store::readJson(request.body, {}, query);
        response.body = store::serializeResults(snapshot->query(query));
    } catch (const FatalError &e) {
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        return {400, "application/json", errorBody(e.what())};
    }

    queries_.fetch_add(1, std::memory_order_relaxed);
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - begin);
    queryMicros_.fetch_add((std::uint64_t)micros.count(),
                           std::memory_order_relaxed);
    return response;
}

HttpResponse
QueryServer::handleReload()
{
    std::string error;
    if (!reload(error))
        return {409, "application/json", errorBody(error)};
    auto snapshot = index();
    return {200, "application/json", jsonBody([&](JsonWriter &w) {
                w.key("status").string("reloaded");
                w.key("fingerprint").string(snapshot->fingerprint());
                w.key("rows").number((double)snapshot->rows());
            })};
}

HttpResponse
QueryServer::dispatch(const HttpRequest &request)
{
    const std::string path = request.path();

    if (path == "/query") {
        if (request.method != "POST") {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            return {405, "application/json",
                    errorBody("/query takes POST")};
        }
        return handleQuery(request);
    }

    if (path == "/reload") {
        if (request.method != "POST") {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            return {405, "application/json",
                    errorBody("/reload takes POST")};
        }
        return handleReload();
    }

    if (path == "/healthz") {
        if (request.method != "GET") {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            return {405, "application/json",
                    errorBody("/healthz takes GET")};
        }
        auto snapshot = index();
        return {200, "application/json", jsonBody([&](JsonWriter &w) {
                    w.key("status").string("ok");
                    w.key("fingerprint").string(snapshot->fingerprint());
                    w.key("rows").number((double)snapshot->rows());
                    w.key("format").number(store::kFormatVersion);
                })};
    }

    if (path == "/statz") {
        if (request.method != "GET") {
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            return {405, "application/json",
                    errorBody("/statz takes GET")};
        }
        ServeCounters c = counters();
        return {200, "application/json", jsonBody([&](JsonWriter &w) {
                    w.key("queries").number((double)c.queries);
                    w.key("bad_requests").number((double)c.badRequests);
                    w.key("reloads").number((double)c.reloads);
                    w.key("reload_failures").number((double)c.reloadFailures);
                    w.key("dropped_connections").number((double)c.dropped);
                    w.key("query_micros").number((double)c.queryMicros);
                })};
    }

    badRequests_.fetch_add(1, std::memory_order_relaxed);
    return {404, "application/json",
            errorBody("no such endpoint '" + path + "'")};
}

bool
QueryServer::awaitNextRequest(int fd) const
{
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.keepAliveTimeoutMillis);
    for (;;) {
        pollfd idle{fd, POLLIN, 0};
        int ready = ::poll(&idle, 1, kIdlePollMillis);
        if (ready > 0)
            return true;  // bytes or a hangup; recv() tells which
        if (ready < 0 && errno != EINTR)
            return false;
        if (waiting_.load(std::memory_order_relaxed) > 0 ||
            std::chrono::steady_clock::now() >= deadline)
            return false;
    }
}

void
QueryServer::handleConnection(int fd)
{
    // The same quiet receive window bounds a peer mid-request and an
    // idle keep-alive connection, so a worker is pinned for at most
    // one window past the last byte either way.
    setRecvTimeout(fd, options_.keepAliveTimeoutMillis);

    std::string carry;  // pipelined bytes past the previous request
    for (int served = 0; served < options_.maxRequestsPerConnection;
         ++served) {
        if (served > 0 && carry.empty() && !awaitNextRequest(fd))
            return;
        HttpRequestParser parser(options_.maxBodyBytes);
        bool midRequest = false;
        if (!carry.empty()) {
            parser.consume(carry.data(), carry.size());
            midRequest = true;
            carry.clear();
        }
        char chunk[8192];
        while (parser.state() == ParseState::NeedMore) {
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                // Only a hangup (or timeout) after a request started
                // counts as dropped; a keep-alive peer going away
                // between requests is the protocol working.
                if (midRequest)
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            midRequest = true;
            parser.consume(chunk, (std::size_t)n);
        }

        HttpResponse response;
        bool keepAlive = false;
        switch (parser.state()) {
          case ParseState::Done: {
            response = dispatch(parser.request());
            // HTTP/1.1 persists unless the client says close; earlier
            // versions must ask. A parse failure always closes (the
            // connection byte stream is unsynchronized).
            const HttpRequest &request = parser.request();
            std::string token;
            auto it = request.headers.find("connection");
            if (it != request.headers.end()) {
                token = it->second;
                for (char &c : token)
                    c = (char)std::tolower((unsigned char)c);
            }
            keepAlive = request.version == "HTTP/1.1"
                ? token != "close"
                : token == "keep-alive";
            if (served + 1 >= options_.maxRequestsPerConnection)
                keepAlive = false;
            break;
          }
          case ParseState::TooLarge:
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            response = {413, "application/json",
                        errorBody(parser.error())};
            break;
          default:
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            response = {400, "application/json",
                        errorBody(parser.error())};
            break;
        }
        if (!sendAll(fd, serializeResponse(response, keepAlive))) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (!keepAlive)
            return;
        carry = parser.remainder();
    }
}

} // namespace serve
} // namespace nvmexp
