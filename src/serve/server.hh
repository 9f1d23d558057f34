/**
 * @file
 * Sweep-as-a-service: a long-lived HTTP query server over one result
 * store (the `nvmexplorer_cli serve` subcommand).
 *
 * Endpoints (all responses JSON; connections persist per HTTP/1.1
 * keep-alive semantics, bounded by keepAliveTimeoutMillis and
 * maxRequestsPerConnection):
 *
 *   POST /query    body = the StoreQuery wire format (query.json);
 *                  200 with the byte-exact store::serializeResults
 *                  form of the matching rows, or a structured 400
 *                  {"error": ...} for malformed JSON, unknown query
 *                  keys, or unknown metrics. 413 for oversized bodies.
 *   GET  /healthz  {"status", "fingerprint", "rows", "format"}
 *   GET  /statz    serving counters (queries, bad requests, reloads,
 *                  dropped connections, total query microseconds)
 *   POST /reload   re-index the store directory; 200 on success, 409
 *                  (old index kept) when the store is missing, corrupt,
 *                  or mid-rewrite. SIGHUP triggers the same refresh.
 *
 * Concurrency: a blocking accept loop hands connections to a
 * ThreadPool; the index is an immutable shared_ptr swapped under a
 * mutex on reload, so in-flight queries drain on the snapshot they
 * started with. The accept socket carries a short receive timeout so
 * the loop polls the stop and SIGHUP-reload flags without signals
 * interrupting syscalls mid-request.
 */

#ifndef NVMEXP_SERVE_SERVER_HH
#define NVMEXP_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "serve/http.hh"
#include "serve/index.hh"
#include "util/thread_pool.hh"

namespace nvmexp {
namespace serve {

/** Configuration for one QueryServer. */
struct ServeOptions
{
    std::string storeDir;
    int port = 0;       ///< 0 = kernel-assigned (see QueryServer::port)
    int jobs = 4;       ///< connection worker threads
    std::size_t maxBodyBytes = 1 << 20;  ///< /query body cap (413 above)
    /** How long a keep-alive connection may sit idle (also the
     *  mid-request receive window) before the worker gives up on it.
     *  An idle connection is closed sooner when another connection is
     *  waiting for a worker; the client reconnects. */
    int keepAliveTimeoutMillis = 5000;
    /** Requests served per connection before the server answers
     *  "Connection: close" and recycles the worker (bounds how long
     *  one chatty client can pin a pool thread). */
    int maxRequestsPerConnection = 100;
};

/** Snapshot of the serving counters (/statz). */
struct ServeCounters
{
    std::uint64_t queries = 0;         ///< /query requests served (200)
    std::uint64_t badRequests = 0;     ///< 4xx responses
    std::uint64_t reloads = 0;         ///< successful re-indexes
    std::uint64_t reloadFailures = 0;  ///< rejected re-indexes
    std::uint64_t dropped = 0;   ///< connections lost mid-request (an
                                 ///< idle keep-alive close is clean)
    std::uint64_t queryMicros = 0;     ///< summed /query handling time
};

class QueryServer
{
  public:
    explicit QueryServer(ServeOptions options);
    ~QueryServer();

    QueryServer(const QueryServer &) = delete;
    QueryServer &operator=(const QueryServer &) = delete;

    /** Load + index the store and bind/listen. @return false with
     *  `error` set on a bad store or unbindable port. */
    bool start(std::string &error);

    /** Accept-and-serve until stop(); call from a dedicated thread
     *  (or the main thread for the CLI). Requires start(). */
    void run();

    /** Ask run() to return; safe from any thread. Pending connections
     *  finish (the pool drains in the destructor). */
    void stop();

    /** The bound port (resolves port=0 to the kernel's choice);
     *  valid after start(). */
    int port() const { return port_; }

    /** Re-index the store now; on failure the old index stays live.
     *  Safe from any thread. */
    bool reload(std::string &error);

    /** The live index snapshot. */
    std::shared_ptr<const StoreIndex> index() const;

    ServeCounters counters() const;

    /** Handle one already-parsed request (exposed for direct unit
     *  testing of the endpoint logic without sockets). */
    HttpResponse dispatch(const HttpRequest &request);

    /**
     * Mark that every running server should re-index at its next
     * accept-loop tick. Only touches a lock-free atomic flag, so it is
     * safe to call from a SIGHUP handler.
     */
    static void requestReloadFromSignal();

    /** Install a SIGHUP handler calling requestReloadFromSignal(). */
    static void installSighupHandler();

  private:
    /** How often an idle keep-alive connection checks whether another
     *  connection is waiting for its worker. */
    static constexpr int kIdlePollMillis = 10;

    void handleConnection(int fd);
    /** Wait for the next request on an idle keep-alive connection.
     *  false: close it, because it sat idle for keepAliveTimeoutMillis
     *  or because another connection is waiting for a worker (an idle
     *  connection must not hold one of the `jobs` workers while a
     *  client that has a request waits). */
    bool awaitNextRequest(int fd) const;
    HttpResponse handleQuery(const HttpRequest &request);
    HttpResponse handleReload();

    ServeOptions options_;
    int listenFd_ = -1;
    int port_ = 0;
    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex indexMutex_;
    std::shared_ptr<const StoreIndex> index_;

    std::atomic<bool> stop_{false};
    /** Accepted connections not yet picked up by a worker. */
    std::atomic<int> waiting_{0};
    std::atomic<std::uint64_t> queries_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> reloads_{0};
    std::atomic<std::uint64_t> reloadFailures_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> queryMicros_{0};
};

} // namespace serve
} // namespace nvmexp

#endif // NVMEXP_SERVE_SERVER_HH
