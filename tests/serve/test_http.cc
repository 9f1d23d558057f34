#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "serve/http.hh"

namespace nvmexp {
namespace {

using serve::HttpRequestParser;
using serve::HttpResponse;
using serve::ParseState;

/** A loopback peer for one connection: it reads the request head and
 *  answers `response` verbatim, so a test controls every byte the
 *  client parses. */
class CannedPeer
{
  public:
    explicit CannedPeer(std::string response)
    {
        listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t size = sizeof(addr);
        if (listener_ < 0 ||
            ::bind(listener_, (const sockaddr *)&addr, size) != 0 ||
            ::listen(listener_, 1) != 0 ||
            ::getsockname(listener_, (sockaddr *)&addr, &size) != 0)
            ADD_FAILURE() << "cannot listen on the loopback interface";
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this, response] {
            int fd = ::accept(listener_, nullptr, nullptr);
            if (fd < 0)
                return;
            std::string head;
            char byte = 0;
            while (head.find("\r\n\r\n") == std::string::npos &&
                   ::recv(fd, &byte, 1, 0) == 1)
                head += byte;
            ::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
            ::close(fd);
        });
    }

    ~CannedPeer()
    {
        ::shutdown(listener_, SHUT_RDWR);  // unblocks an idle accept
        thread_.join();
        ::close(listener_);
    }

    CannedPeer(const CannedPeer &) = delete;
    CannedPeer &operator=(const CannedPeer &) = delete;

    int port() const { return port_; }

  private:
    int listener_ = -1;
    int port_ = 0;
    std::thread thread_;
};

/** One HttpClient exchange against a peer answering `response`. */
bool
exchangeWith(const std::string &response, serve::HttpClientResult &out,
             std::string &error)
{
    CannedPeer peer(response);
    serve::HttpClient client(peer.port());
    return client.exchange("GET", "/healthz", "", out, error);
}

TEST(HttpParser, ParsesPostWithBody)
{
    HttpRequestParser parser(1024);
    std::string raw = "POST /query HTTP/1.1\r\n"
                      "Host: 127.0.0.1\r\n"
                      "Content-Length: 11\r\n"
                      "\r\n"
                      "{\"a\": true}";
    EXPECT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Done);
    EXPECT_EQ(parser.request().method, "POST");
    EXPECT_EQ(parser.request().target, "/query");
    EXPECT_EQ(parser.request().version, "HTTP/1.1");
    EXPECT_EQ(parser.request().body, "{\"a\": true}");
    // Header names are case-folded.
    EXPECT_EQ(parser.request().headers.at("content-length"), "11");
}

TEST(HttpParser, ParsesIncrementallyByteByByte)
{
    HttpRequestParser parser(1024);
    std::string raw = "POST /reload HTTP/1.1\r\n"
                      "Content-Length: 2\r\n\r\n{}";
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
        ASSERT_EQ(parser.consume(&raw[i], 1), ParseState::NeedMore)
            << "byte " << i;
    }
    EXPECT_EQ(parser.consume(&raw[raw.size() - 1], 1), ParseState::Done);
    EXPECT_EQ(parser.request().body, "{}");
}

TEST(HttpParser, AcceptsBareLfLineEndings)
{
    HttpRequestParser parser(1024);
    std::string raw = "GET /healthz HTTP/1.1\nHost: x\n\n";
    EXPECT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Done);
    EXPECT_EQ(parser.request().method, "GET");
    EXPECT_EQ(parser.request().body, "");
}

TEST(HttpParser, GetWithoutContentLengthCompletesAtHeaderEnd)
{
    HttpRequestParser parser(1024);
    std::string raw = "GET /statz HTTP/1.1\r\n\r\n";
    EXPECT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Done);
}

TEST(HttpParser, PathStripsQueryString)
{
    HttpRequestParser parser(1024);
    std::string raw = "GET /healthz?verbose=1 HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Done);
    EXPECT_EQ(parser.request().target, "/healthz?verbose=1");
    EXPECT_EQ(parser.request().path(), "/healthz");
}

TEST(HttpParser, RejectsMalformedRequestLine)
{
    struct Case
    {
        const char *raw;
        const char *error;
    } cases[] = {
        {"\r\n\r\n", "empty request line"},
        {"POST /query\r\n\r\n", "malformed request line"},
        {"POST /query HTTP/1.1 extra\r\n\r\n", "malformed request line"},
        {"POST /query SMTP/1.0\r\n\r\n", "unsupported protocol"},
    };
    for (const auto &c : cases) {
        HttpRequestParser parser(1024);
        std::string raw = c.raw;
        EXPECT_EQ(parser.consume(raw.data(), raw.size()),
                  ParseState::Bad)
            << c.raw;
        EXPECT_NE(parser.error().find(c.error), std::string::npos)
            << parser.error();
    }
}

TEST(HttpParser, RejectsMalformedHeadersAndContentLength)
{
    {
        HttpRequestParser parser(1024);
        std::string raw = "GET / HTTP/1.1\r\nno colon here\r\n\r\n";
        EXPECT_EQ(parser.consume(raw.data(), raw.size()),
                  ParseState::Bad);
        EXPECT_NE(parser.error().find("malformed header"),
                  std::string::npos);
    }
    for (const char *bad : {"abc", "-4", "2.5"}) {
        HttpRequestParser parser(1024);
        std::string raw = std::string("POST / HTTP/1.1\r\n"
                                      "Content-Length: ") +
                          bad + "\r\n\r\n";
        EXPECT_EQ(parser.consume(raw.data(), raw.size()),
                  ParseState::Bad)
            << bad;
        EXPECT_NE(parser.error().find("bad Content-Length"),
                  std::string::npos);
    }
}

TEST(HttpParser, RejectsOversizedDeclaredBody)
{
    HttpRequestParser parser(16);
    std::string raw = "POST /query HTTP/1.1\r\n"
                      "Content-Length: 17\r\n\r\n";
    EXPECT_EQ(parser.consume(raw.data(), raw.size()),
              ParseState::TooLarge);
    EXPECT_NE(parser.error().find("too large"), std::string::npos);
}

TEST(HttpParser, RejectsUnboundedHeaderSpam)
{
    // A peer streaming junk without ever terminating the header block
    // must not buffer without limit.
    HttpRequestParser parser(16);
    std::string junk(64 * 1024, 'x');
    ParseState state = parser.consume(junk.data(), junk.size());
    EXPECT_EQ(state, ParseState::TooLarge);
}

TEST(HttpParser, TerminalStateIsSticky)
{
    HttpRequestParser parser(1024);
    std::string raw = "BAD\r\n\r\n";
    ASSERT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Bad);
    std::string more = "GET / HTTP/1.1\r\n\r\n";
    EXPECT_EQ(parser.consume(more.data(), more.size()),
              ParseState::Bad);
}

TEST(HttpResponseSerialization, CarriesStatusLengthAndClose)
{
    HttpResponse response{200, "application/json", "{\"ok\": true}\n"};
    std::string wire = serve::serializeResponse(response);
    EXPECT_EQ(wire.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
    EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 13\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(wire.substr(wire.size() - response.body.size()),
              response.body);
}

TEST(HttpResponseSerialization, KeepAliveTokenSelectsConnectionHeader)
{
    HttpResponse response{200, "application/json", "{}\n"};
    std::string wire = serve::serializeResponse(response, true);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_EQ(wire.find("Connection: close"), std::string::npos);
    // The explicit false matches the default-argument wire bytes.
    EXPECT_EQ(serve::serializeResponse(response, false),
              serve::serializeResponse(response));
}

TEST(HttpParser, RemainderExposesPipelinedBytes)
{
    HttpRequestParser parser(1024);
    std::string raw = "POST /query HTTP/1.1\r\n"
                      "Content-Length: 2\r\n"
                      "\r\n"
                      "{}"
                      "GET /healthz HTTP/1.1\r\n";
    EXPECT_EQ(parser.consume(raw.data(), raw.size()), ParseState::Done);
    EXPECT_EQ(parser.request().body, "{}");
    EXPECT_EQ(parser.remainder(), "GET /healthz HTTP/1.1\r\n");

    HttpRequestParser exact(1024);
    std::string fit = "GET / HTTP/1.1\r\n\r\n";
    EXPECT_EQ(exact.consume(fit.data(), fit.size()), ParseState::Done);
    EXPECT_EQ(exact.remainder(), "");
}

TEST(HttpResponseSerialization, ReasonPhrasesCoverServerStatuses)
{
    EXPECT_STREQ(serve::reasonPhrase(200), "OK");
    EXPECT_STREQ(serve::reasonPhrase(400), "Bad Request");
    EXPECT_STREQ(serve::reasonPhrase(404), "Not Found");
    EXPECT_STREQ(serve::reasonPhrase(405), "Method Not Allowed");
    EXPECT_STREQ(serve::reasonPhrase(409), "Conflict");
    EXPECT_STREQ(serve::reasonPhrase(413), "Payload Too Large");
    EXPECT_STREQ(serve::reasonPhrase(500), "Internal Server Error");
    EXPECT_STREQ(serve::reasonPhrase(299), "Unknown");
}

TEST(HttpClient, ReadsAWellFormedResponse)
{
    serve::HttpClientResult out;
    std::string error;
    ASSERT_TRUE(exchangeWith("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                             "Connection: close\r\n\r\nabc",
                             out, error))
        << error;
    EXPECT_EQ(out.status, 200);
    EXPECT_EQ(out.body, "abc");
}

/** A peer's status code is exactly three digits and its
 *  Content-Length a whole number in range before any cast: unchecked,
 *  "NaN" read as status INT_MIN, "2e2" as 200, "2.5" truncated a
 *  3-byte body to "ab", and 1e300 or Infinity was an undefined cast. */
TEST(HttpClient, RefusesMalformedStatusCodesAndContentLengths)
{
    for (const char *code : {"NaN", "2.5", "1e3", "2e2", "1E2", "099",
                             "-20", "+20", "2000", "20", ""}) {
        serve::HttpClientResult out;
        std::string error;
        EXPECT_FALSE(exchangeWith(std::string("HTTP/1.1 ") + code +
                                      " OK\r\nContent-Length: 2\r\n"
                                      "\r\n{}",
                                  out, error))
            << code;
        EXPECT_NE(error.find("status code"), std::string::npos)
            << code << ": " << error;
    }
    for (const char *length : {"2.5", "1e300", "Infinity", "NaN", "-1",
                               "9007199254740994", "abc"}) {
        serve::HttpClientResult out;
        std::string error;
        EXPECT_FALSE(exchangeWith(std::string("HTTP/1.1 200 OK\r\n"
                                              "Content-Length: ") +
                                      length + "\r\n\r\nabc",
                                  out, error))
            << length << " read as body '" << out.body << "'";
        EXPECT_NE(error.find("Content-Length"), std::string::npos)
            << length << ": " << error;
    }
}

} // namespace
} // namespace nvmexp
