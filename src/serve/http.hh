/**
 * @file
 * Minimal HTTP/1.1 plumbing for the query server: an incremental
 * request parser, response serialization, and a tiny blocking client
 * the tests and the load bench drive the server with.
 *
 * Deliberately small: blocking sockets, no chunked transfer encoding,
 * no TLS. Connections persist per HTTP/1.1 semantics (the server
 * bounds idle time and requests per connection; see serve/server.hh),
 * and HttpClient keeps one connection open across exchanges. The
 * request body size is capped by the caller so an oversized upload is
 * rejected with 413 instead of buffered.
 */

#ifndef NVMEXP_SERVE_HTTP_HH
#define NVMEXP_SERVE_HTTP_HH

#include <cstddef>
#include <map>
#include <string>

namespace nvmexp {
namespace serve {

/** One parsed request. Header names are lowercased (HTTP headers are
 *  case-insensitive); the target keeps its raw spelling. */
struct HttpRequest
{
    std::string method;   ///< "GET", "POST", ...
    std::string target;   ///< "/query", "/healthz?verbose", ...
    std::string version;  ///< "HTTP/1.1"
    std::map<std::string, std::string> headers;
    std::string body;

    /** The target with any "?query" suffix stripped. */
    std::string path() const;
};

/** One response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
};

/** State of an HttpRequestParser after consuming bytes. */
enum class ParseState
{
    NeedMore,  ///< request incomplete; feed more bytes
    Done,      ///< request() is a complete request
    Bad,       ///< malformed request line/headers (400)
    TooLarge,  ///< declared or buffered size over the cap (413)
};

/**
 * Incremental HTTP/1.1 request parser. Feed it whatever recv()
 * returned; it buffers until the header block and the Content-Length
 * body are complete. Both CRLF and bare-LF line endings are accepted;
 * the header block ends at its first empty line. The outcome (state,
 * request, error) does not depend on how the bytes were chunked.
 * Refused with TooLarge: a header block longer than maxBodyBytes +
 * 8192 bytes, or a Content-Length over maxBodyBytes; with Bad: a
 * Content-Length that is not a whole, non-negative number.
 */
class HttpRequestParser
{
  public:
    /** @param maxBodyBytes reject bodies declared or buffered beyond
     *  this many bytes. */
    explicit HttpRequestParser(std::size_t maxBodyBytes);

    /** Consume one chunk; once a terminal state (anything but
     *  NeedMore) is reached, further calls return it unchanged. */
    ParseState consume(const char *data, std::size_t size);

    ParseState state() const { return state_; }

    /** The parsed request; meaningful once state() == Done. */
    const HttpRequest &request() const { return request_; }

    /** What went wrong; meaningful for Bad / TooLarge. */
    const std::string &error() const { return error_; }

    /** Bytes consumed beyond the parsed request (the start of a
     *  pipelined follow-up on a keep-alive connection); meaningful
     *  once state() == Done. */
    std::string remainder() const
    {
        return buffer_.substr(bodyStart_ + contentLength_);
    }

  private:
    ParseState finishHeaders(std::size_t headerEnd);
    ParseState fail(ParseState state, const std::string &what);

    std::string buffer_;
    std::size_t maxBody_;
    std::size_t scanFrom_ = 0;   ///< where the header-end search resumes
    std::size_t bodyStart_ = 0;
    std::size_t contentLength_ = 0;
    bool headersDone_ = false;
    ParseState state_ = ParseState::NeedMore;
    HttpRequest request_;
    std::string error_;
};

/** The standard reason phrase for the status codes the server emits
 *  (unknown codes get "Unknown"). */
const char *reasonPhrase(int status);

/** Serialize status line + Content-Type/Content-Length/Connection
 *  headers + body. `keepAlive` picks the Connection token; the
 *  default matches the historical close-per-request behavior. */
std::string serializeResponse(const HttpResponse &response,
                              bool keepAlive = false);

/** send() the whole buffer (MSG_NOSIGNAL; a dropped peer is reported
 *  as false, never as SIGPIPE). */
bool sendAll(int fd, const std::string &bytes);

/** What the blocking client got back. */
struct HttpClientResult
{
    int status = 0;
    std::map<std::string, std::string> headers;  ///< lowercased names
    std::string body;
};

/**
 * One blocking request against 127.0.0.1:`port`: connect, send, read
 * to EOF, parse. @return false (with `error` set) on connect/send/
 * malformed-response trouble. Used by the tests, the load bench, and
 * anything else that wants to talk to a local server without curl.
 */
bool httpExchange(int port, const std::string &method,
                  const std::string &target, const std::string &body,
                  HttpClientResult &out, std::string &error);

/**
 * A blocking client that keeps one connection to 127.0.0.1:`port`
 * open across exchanges ("Connection: keep-alive"), reading each
 * response by its Content-Length instead of to EOF. When the server
 * closed the connection between exchanges (idle timeout or
 * per-connection request cap), the next exchange transparently
 * reconnects once. The load bench and the keep-alive tests drive the
 * server through this.
 */
class HttpClient
{
  public:
    explicit HttpClient(int port) : port_(port) {}
    ~HttpClient() { disconnect(); }

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /** One request/response on the persistent connection. @return
     *  false with `error` set on connect/send/malformed-response
     *  trouble. */
    bool exchange(const std::string &method, const std::string &target,
                  const std::string &body, HttpClientResult &out,
                  std::string &error);

    /** Whether a connection is currently open (false before the first
     *  exchange and after the server signalled Connection: close). */
    bool connected() const { return fd_ >= 0; }

    void disconnect();

  private:
    bool connectOnce(std::string &error);

    int port_;
    int fd_ = -1;
    std::string carry_;  ///< bytes read past the previous response
};

} // namespace serve
} // namespace nvmexp

#endif // NVMEXP_SERVE_HTTP_HH
