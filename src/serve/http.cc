#include "serve/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include "util/json.hh"

namespace nvmexp {
namespace serve {

namespace {

std::string
lowered(std::string text)
{
    for (char &c : text)
        c = (char)std::tolower((unsigned char)c);
    return text;
}

std::string
trimmed(const std::string &text)
{
    std::size_t begin = text.find_first_not_of(" \t\r");
    std::size_t end = text.find_last_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    return text.substr(begin, end - begin + 1);
}

/** Split one header block line-by-line; lines may end in LF or CRLF
 *  (the trailing CR is trimmed with the surrounding whitespace). */
std::vector<std::string>
splitLines(const std::string &block)
{
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at <= block.size()) {
        std::size_t eol = block.find('\n', at);
        if (eol == std::string::npos) {
            lines.push_back(block.substr(at));
            break;
        }
        lines.push_back(block.substr(at, eol - at));
        at = eol + 1;
    }
    return lines;
}

} // namespace

std::string
HttpRequest::path() const
{
    std::size_t q = target.find('?');
    return q == std::string::npos ? target : target.substr(0, q);
}

HttpRequestParser::HttpRequestParser(std::size_t maxBodyBytes)
    : maxBody_(maxBodyBytes)
{
}

ParseState
HttpRequestParser::fail(ParseState state, const std::string &what)
{
    state_ = state;
    error_ = what;
    return state_;
}

ParseState
HttpRequestParser::finishHeaders(std::size_t headerEnd)
{
    auto lines = splitLines(buffer_.substr(0, headerEnd));
    if (lines.empty() || trimmed(lines[0]).empty())
        return fail(ParseState::Bad, "empty request line");

    // Request line: METHOD SP TARGET SP VERSION.
    std::string requestLine = trimmed(lines[0]);
    std::size_t sp1 = requestLine.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? sp1 : requestLine.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        requestLine.find(' ', sp2 + 1) != std::string::npos) {
        return fail(ParseState::Bad,
                    "malformed request line '" + requestLine + "'");
    }
    request_.method = requestLine.substr(0, sp1);
    request_.target = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
    request_.version = requestLine.substr(sp2 + 1);
    if (request_.version.rfind("HTTP/", 0) != 0) {
        return fail(ParseState::Bad,
                    "unsupported protocol '" + request_.version + "'");
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::string line = trimmed(lines[i]);
        if (line.empty())
            continue;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0)
            return fail(ParseState::Bad, "malformed header '" + line + "'");
        request_.headers[lowered(trimmed(line.substr(0, colon)))] =
            trimmed(line.substr(colon + 1));
    }

    auto cl = request_.headers.find("content-length");
    if (cl != request_.headers.end()) {
        // Checked on the double, before any cast: casting NaN or 1e300
        // to an integer is undefined.
        double declared = 0.0;
        if (!JsonValue::parseNumber(cl->second, declared) ||
            !isWholeNumber(declared, 0.0,
                           std::numeric_limits<double>::infinity())) {
            return fail(ParseState::Bad,
                        "bad Content-Length '" + cl->second + "'");
        }
        if (declared > (double)maxBody_)
            return fail(ParseState::TooLarge, "request body too large");
        contentLength_ = (std::size_t)declared;
    }
    headersDone_ = true;
    return ParseState::NeedMore;
}

ParseState
HttpRequestParser::consume(const char *data, std::size_t size)
{
    if (state_ != ParseState::NeedMore)
        return state_;
    buffer_.append(data, size);

    if (!headersDone_) {
        // The header block ends at its first empty line, CRLF or bare
        // LF. The search resumes where the previous chunk's left off
        // (nothing earlier can start an empty line), so the earliest
        // one is found however the bytes were chunked.
        const std::size_t maxHeader = maxBody_ + 8192;
        std::size_t lf = buffer_.find("\n\n", scanFrom_);
        std::size_t crlf = buffer_.find("\n\r\n", scanFrom_);
        std::size_t end = std::min(lf, crlf);
        if (end == std::string::npos) {
            if (buffer_.size() > maxHeader)
                return fail(ParseState::TooLarge, "request too large");
            scanFrom_ = buffer_.size() < 2 ? 0 : buffer_.size() - 2;
            return ParseState::NeedMore;
        }
        bodyStart_ = end + (end == lf ? 2 : 3);
        // Over the limit is refused even with the end in hand, as it
        // is when the same bytes trickle in.
        if (bodyStart_ > maxHeader)
            return fail(ParseState::TooLarge, "request too large");
        if (finishHeaders(end) != ParseState::NeedMore)
            return state_;
    }

    if (buffer_.size() - bodyStart_ >= contentLength_) {
        request_.body = buffer_.substr(bodyStart_, contentLength_);
        state_ = ParseState::Done;
    }
    return state_;
}

const char *
reasonPhrase(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 500: return "Internal Server Error";
      default: return "Unknown";
    }
}

std::string
serializeResponse(const HttpResponse &response, bool keepAlive)
{
    std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      reasonPhrase(response.status) + "\r\n";
    out += "Content-Type: " + response.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) +
           "\r\n";
    out += keepAlive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
    out += response.body;
    return out;
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += (std::size_t)n;
    }
    return true;
}

namespace {

/** Locate the blank line ending a response head (CRLFCRLF or bare
 *  LFLF); @return false while it has not arrived yet. */
bool
findHeaderEnd(const std::string &text, std::size_t &headerEnd,
              std::size_t &bodyAt)
{
    headerEnd = text.find("\r\n\r\n");
    if (headerEnd != std::string::npos) {
        bodyAt = headerEnd + 4;
        return true;
    }
    headerEnd = text.find("\n\n");
    if (headerEnd != std::string::npos) {
        bodyAt = headerEnd + 2;
        return true;
    }
    return false;
}

/** Parse "HTTP/x.y NNN reason" + headers out of one head block. */
bool
parseResponseHead(const std::string &head, HttpClientResult &out,
                  std::string &error)
{
    auto lines = splitLines(head);
    if (lines.empty()) {
        error = "malformed response (empty status line)";
        return false;
    }
    std::string status = trimmed(lines[0]);
    std::size_t sp = status.find(' ');
    if (sp == std::string::npos || status.rfind("HTTP/", 0) != 0) {
        error = "malformed status line '" + status + "'";
        return false;
    }
    // The status code is exactly three ASCII digits, the first 1-9,
    // up to the reason phrase's space or the end of the line.
    std::string codeText =
        status.substr(sp + 1, status.find(' ', sp + 1) - sp - 1);
    bool wellFormed = codeText.size() == 3 && codeText[0] != '0';
    for (char c : codeText)
        wellFormed = wellFormed && std::isdigit((unsigned char)c);
    if (!wellFormed) {
        error = "malformed status code '" + codeText + "'";
        return false;
    }
    out.status = std::stoi(codeText);
    out.headers.clear();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::string line = trimmed(lines[i]);
        std::size_t colon = line.find(':');
        if (line.empty() || colon == std::string::npos)
            continue;
        out.headers[lowered(trimmed(line.substr(0, colon)))] =
            trimmed(line.substr(colon + 1));
    }
    return true;
}

} // namespace

bool
httpExchange(int port, const std::string &method,
             const std::string &target, const std::string &body,
             HttpClientResult &out, std::string &error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket: " + std::string(std::strerror(errno));
        return false;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((uint16_t)port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) != 0) {
        error = "connect: " + std::string(std::strerror(errno));
        ::close(fd);
        return false;
    }

    std::string request = method + " " + target + " HTTP/1.1\r\n";
    request += "Host: 127.0.0.1\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Connection: close\r\n\r\n";
    request += body;
    if (!sendAll(fd, request)) {
        error = "send: " + std::string(std::strerror(errno));
        ::close(fd);
        return false;
    }

    std::string response;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = "recv: " + std::string(std::strerror(errno));
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        response.append(chunk, (std::size_t)n);
    }
    ::close(fd);

    // Parse status line + headers + body (body runs to EOF; this
    // client asked for Connection: close, and Content-Length is
    // advisory here).
    std::size_t headerEnd = 0;
    std::size_t bodyAt = 0;
    if (!findHeaderEnd(response, headerEnd, bodyAt)) {
        error = "malformed response (no header terminator)";
        return false;
    }
    if (!parseResponseHead(response.substr(0, headerEnd), out, error))
        return false;
    out.body = response.substr(bodyAt);
    return true;
}

bool
HttpClient::connectOnce(std::string &error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket: " + std::string(std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((uint16_t)port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) != 0) {
        error = "connect: " + std::string(std::strerror(errno));
        ::close(fd);
        return false;
    }
    fd_ = fd;
    carry_.clear();
    return true;
}

void
HttpClient::disconnect()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    carry_.clear();
}

bool
HttpClient::exchange(const std::string &method,
                     const std::string &target, const std::string &body,
                     HttpClientResult &out, std::string &error)
{
    for (int attempt = 0;; ++attempt) {
        bool fresh = fd_ < 0;
        if (fresh && !connectOnce(error))
            return false;

        std::string request = method + " " + target + " HTTP/1.1\r\n";
        request += "Host: 127.0.0.1\r\n";
        request +=
            "Content-Length: " + std::to_string(body.size()) + "\r\n";
        request += "Connection: keep-alive\r\n\r\n";
        request += body;
        bool dead = !sendAll(fd_, request);

        std::string response = std::move(carry_);
        carry_.clear();
        std::size_t headerEnd = 0;
        std::size_t bodyAt = 0;
        bool headFound =
            !dead && findHeaderEnd(response, headerEnd, bodyAt);
        char chunk[4096];
        while (!dead && !headFound) {
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                dead = true;
                break;
            }
            response.append(chunk, (std::size_t)n);
            headFound = findHeaderEnd(response, headerEnd, bodyAt);
        }
        if (dead) {
            disconnect();
            // A reused connection the server quietly closed between
            // exchanges (idle timeout or request cap): retry once on
            // a fresh one. A dead fresh connection is a real error.
            if (!fresh && attempt == 0 && response.empty())
                continue;
            error = "connection closed mid-response";
            return false;
        }
        if (!parseResponseHead(response.substr(0, headerEnd), out,
                               error)) {
            disconnect();
            return false;
        }
        auto cl = out.headers.find("content-length");
        double length = 0.0;
        if (cl == out.headers.end() ||
            !JsonValue::parseNumber(cl->second, length) ||
            !isWholeNumber(length, 0.0, (double)kMaxExactInteger)) {
            disconnect();
            error = "response carries no usable Content-Length";
            return false;
        }
        std::size_t want = bodyAt + (std::size_t)length;
        while (response.size() < want) {
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                disconnect();
                error = "connection closed mid-response";
                return false;
            }
            response.append(chunk, (std::size_t)n);
        }
        out.body = response.substr(bodyAt, (std::size_t)length);
        carry_ = response.substr(want);
        auto conn = out.headers.find("connection");
        if (conn != out.headers.end() &&
            lowered(conn->second) == "close")
            disconnect();
        return true;
    }
}

} // namespace serve
} // namespace nvmexp
