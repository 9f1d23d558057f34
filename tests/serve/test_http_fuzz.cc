/**
 * @file
 * Seeded fuzz of the HTTP request parser, in the style of
 * tests/serve/test_query_fuzz.cc (fixed seeds, bounded rounds): valid
 * requests are mutated (truncated, byte-flipped, given huge, negative
 * or repeated Content-Length values, header spam, bare LF line
 * endings, pipelined follow-ups) and fed to HttpRequestParser whole,
 * byte by byte, and in random chunks. Whatever the chunking, the
 * final state and the parsed request are the same; a Done request's
 * body is its Content-Length and within the cap, and the consumed
 * request plus remainder() is exactly what was fed; Bad and TooLarge
 * carry an error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "serve/http.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

using serve::HttpRequestParser;
using serve::ParseState;

/** What one parser made of one feeding of an input. */
struct Outcome
{
    ParseState state = ParseState::NeedMore;
    serve::HttpRequest request;
    std::string error;
    std::string fed;  ///< bytes handed over until a terminal state
    std::string remainder;
};

/** Feed `input` in pieces of the given sizes (the last piece takes
 *  the rest), stopping at a terminal state as the server does. */
Outcome
feed(const std::string &input, std::size_t cap,
     const std::vector<std::size_t> &sizes)
{
    HttpRequestParser parser(cap);
    Outcome out;
    std::size_t at = 0;
    for (std::size_t i = 0; at < input.size(); ++i) {
        std::size_t n = i < sizes.size() ? sizes[i] : input.size() - at;
        n = std::min(std::max<std::size_t>(n, 1), input.size() - at);
        out.state = parser.consume(input.data() + at, n);
        out.fed.append(input, at, n);
        at += n;
        if (out.state != ParseState::NeedMore)
            break;
    }
    out.request = parser.request();
    out.error = parser.error();
    if (out.state == ParseState::Done)
        out.remainder = parser.remainder();
    return out;
}

const char *
stateName(ParseState state)
{
    switch (state) {
      case ParseState::NeedMore: return "NeedMore";
      case ParseState::Done: return "Done";
      case ParseState::Bad: return "Bad";
      case ParseState::TooLarge: return "TooLarge";
    }
    return "?";
}

/** The invariants of one outcome on its own. */
void
checkOutcome(const Outcome &out, const std::string &input,
             std::size_t cap, const std::string &label)
{
    switch (out.state) {
      case ParseState::NeedMore:
        // Only an incomplete input leaves the parser waiting.
        EXPECT_EQ(out.fed, input) << label;
        break;
      case ParseState::Bad:
      case ParseState::TooLarge:
        EXPECT_FALSE(out.error.empty()) << label;
        break;
      case ParseState::Done: {
        const std::string &body = out.request.body;
        std::size_t declared = 0;
        auto cl = out.request.headers.find("content-length");
        if (cl != out.request.headers.end()) {
            double value = -1.0;
            ASSERT_TRUE(JsonValue::parseNumber(cl->second, value))
                << label;
            ASSERT_TRUE(isWholeNumber(value, 0.0, (double)cap)) << label;
            declared = (std::size_t)value;
        }
        EXPECT_EQ(body.size(), declared) << label;
        EXPECT_LE(body.size(), cap) << label;

        // fed = header block + empty line + body + remainder.
        ASSERT_LE(body.size() + out.remainder.size(), out.fed.size())
            << label;
        std::size_t bodyAt =
            out.fed.size() - out.remainder.size() - body.size();
        EXPECT_EQ(out.fed.substr(bodyAt + body.size()), out.remainder)
            << label;
        EXPECT_EQ(out.fed.substr(bodyAt, body.size()), body) << label;
        std::string head = out.fed.substr(0, bodyAt);
        auto endsWith = [&](const std::string &tail) {
            return head.size() >= tail.size() &&
                head.compare(head.size() - tail.size(), tail.size(),
                             tail) == 0;
        };
        EXPECT_TRUE(endsWith("\n\n") || endsWith("\n\r\n")) << label;
        EXPECT_FALSE(out.request.method.empty()) << label;
        break;
      }
    }
}

/** The request fields a chunking must not change. */
void
expectSameOutcome(const Outcome &a, const Outcome &b,
                  const std::string &label)
{
    ASSERT_EQ(stateName(a.state), stateName(b.state)) << label;
    if (a.state != ParseState::Done)
        return;
    EXPECT_EQ(a.request.method, b.request.method) << label;
    EXPECT_EQ(a.request.target, b.request.target) << label;
    EXPECT_EQ(a.request.version, b.request.version) << label;
    EXPECT_EQ(a.request.headers, b.request.headers) << label;
    EXPECT_EQ(a.request.body, b.request.body) << label;
}

const char *const kSeeds[] = {
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
    "GET /statz?verbose=1 HTTP/1.1\r\n\r\n",
    "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    "Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
    "POST /query HTTP/1.1\r\nContent-Length: 36\r\n\r\n"
    "{\"pareto\": [\"total_power\", \"area\"]}\n",
    "POST /reload HTTP/1.1\nContent-Length: 0\n\n",
    "GET / HTTP/1.0\nConnection: keep-alive\n\n",
};

/** Values a peer may put in Content-Length. */
const char *const kLengths[] = {
    "0", "1", "2", "-1", "-0", "2.5", "1e3", "1e300", "-1e300", "NaN",
    "Infinity", "-Infinity", "18446744073709551616", "9007199254740993",
    "0x10", "", " 7 ", "+3", "abc", "64", "65", "4096",
};

std::string
seed(Rng &rng)
{
    return kSeeds[rng.range(std::size(kSeeds))];
}

/** Replace every "\r\n" of `text` (or, when `some`, a random subset
 *  of them) with a bare "\n". */
std::string
bareLf(Rng &rng, const std::string &text, bool some)
{
    std::string out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        bool crlf = text[i] == '\r' && i + 1 < text.size() &&
            text[i + 1] == '\n';
        if (crlf && (!some || rng.bernoulli(0.5)))
            continue;
        out += text[i];
    }
    return out;
}

/** One mutated request stream. */
std::string
mutated(Rng &rng)
{
    std::string text = seed(rng);
    auto length = [&] {
        return std::string(kLengths[rng.range(std::size(kLengths))]);
    };
    auto headerAt = [&] {  // just past the request line
        std::size_t eol = text.find('\n');
        return eol == std::string::npos ? text.size() : eol + 1;
    };
    switch (rng.range(9)) {
      case 0: // cut short anywhere
        text.resize(rng.range(text.size() + 1));
        break;
      case 1: // a few bytes set to anything
        for (std::uint64_t n = 1 + rng.range(4); n > 0; --n)
            text[rng.range(text.size())] = (char)rng.range(256);
        break;
      case 2: // a hostile Content-Length and a body of some size
        text.insert(headerAt(), "Content-Length: " + length() + "\r\n");
        text.append(rng.range(80), 'b');
        break;
      case 3: { // repeated Content-Length
        std::string headers;
        for (std::uint64_t n = 2 + rng.range(3); n > 0; --n)
            headers += "Content-Length: " + length() + "\r\n";
        text.insert(headerAt(), headers);
        text.append(rng.range(80), 'b');
        break;
      }
      case 4: { // header spam, sometimes past the header cap
        std::string spam;
        std::size_t count =
            rng.range(2) ? rng.range(40) : 400 + rng.range(200);
        for (std::size_t n = 0; n < count; ++n)
            spam += "X-Spam-" + std::to_string(n) + ": " +
                std::string(rng.range(30), 'v') + "\r\n";
        text.insert(headerAt(), spam);
        break;
      }
      case 5: // bare LF, everywhere or mixed with CRLF
        text = bareLf(rng, text, rng.bernoulli(0.5));
        break;
      case 6: // pipelined follow-ups, one possibly cut short
        for (std::uint64_t n = 1 + rng.range(3); n > 0; --n) {
            std::string next = seed(rng);
            if (rng.bernoulli(0.3))
                next = bareLf(rng, next, true);
            if (rng.bernoulli(0.2))
                next.resize(rng.range(next.size() + 1));
            text += next;
        }
        break;
      case 7: // empty lines dropped in anywhere
        for (std::uint64_t n = 1 + rng.range(2); n > 0; --n) {
            const char *blank = rng.bernoulli(0.5) ? "\r\n\r\n" : "\n\n";
            text.insert(rng.range(text.size() + 1), blank);
        }
        break;
      default: // junk that never ends its header block
        text.assign(rng.range(2) ? rng.range(200) : 9000 + rng.range(500),
                    'x');
        break;
    }
    return text;
}

/** Random piece sizes covering `size` bytes, some of them tiny. */
std::vector<std::size_t>
randomPieces(Rng &rng, std::size_t size)
{
    std::vector<std::size_t> pieces;
    for (std::size_t total = 0; total < size;) {
        std::size_t n = 1 + rng.range(rng.bernoulli(0.5) ? 4 : 64);
        pieces.push_back(n);
        total += n;
    }
    return pieces;
}

TEST(HttpParserFuzz, OutcomeIsIndependentOfChunking)
{
    Rng rng(0x477F0A);
    int done = 0, refused = 0, waiting = 0;
    for (int round = 0; round < 3000; ++round) {
        std::string input = mutated(rng);
        std::size_t cap = rng.bernoulli(0.5) ? 64 : 4096;
        std::string label = "round " + std::to_string(round) + " cap " +
            std::to_string(cap) + ": ";
        JsonWriter(label).string(input); // escaped, so it prints whole

        Outcome whole = feed(input, cap, {});
        checkOutcome(whole, input, cap, label);
        if (whole.state == ParseState::Done) {
            // The whole input was fed, so nothing of it is lost.
            EXPECT_EQ(whole.fed, input) << label;
        }

        std::vector<std::vector<std::size_t>> chunkings = {
            randomPieces(rng, input.size()),
            randomPieces(rng, input.size()),
        };
        if (input.size() <= 2048)
            chunkings.emplace_back(input.size(), 1);  // byte by byte
        for (const auto &pieces : chunkings) {
            Outcome part = feed(input, cap, pieces);
            checkOutcome(part, input, cap, label);
            expectSameOutcome(whole, part, label);
        }

        // A keep-alive connection parses the remainder next, as the
        // server does; every pipelined request obeys the same rules.
        std::string rest = whole.remainder;
        for (int depth = 0; whole.state == ParseState::Done &&
             !rest.empty() && depth < 8; ++depth) {
            Outcome next = feed(rest, cap, {});
            Outcome nextPieces =
                feed(rest, cap, randomPieces(rng, rest.size()));
            checkOutcome(next, rest, cap, label + " (pipelined)");
            expectSameOutcome(next, nextPieces, label + " (pipelined)");
            if (next.state != ParseState::Done)
                break;
            rest = next.remainder;
        }

        done += whole.state == ParseState::Done;
        refused += whole.state == ParseState::Bad ||
            whole.state == ParseState::TooLarge;
        waiting += whole.state == ParseState::NeedMore;
    }
    // Every outcome is exercised.
    EXPECT_GT(done, 500);
    EXPECT_GT(refused, 500);
    EXPECT_GT(waiting, 100);
}

TEST(HttpParserFuzz, EarliestEmptyLineEndsTheHeaders)
{
    // Bare-LF headers whose body holds a CRLF empty line: the header
    // block ends at the first empty line, whole or byte by byte.
    const std::string input =
        "POST /query HTTP/1.1\nContent-Length: 4\n\n\r\n\r\n";
    Outcome whole = feed(input, 64, {});
    ASSERT_EQ(stateName(whole.state), stateName(ParseState::Done));
    EXPECT_EQ(whole.request.body, "\r\n\r\n");
    Outcome bytes = feed(input, 64, std::vector<std::size_t>(input.size(), 1));
    expectSameOutcome(whole, bytes, "byte by byte");

    // A bare-LF request pipelined before a CRLF one is two requests.
    const std::string pipelined =
        "GET /healthz HTTP/1.1\n\nGET /statz HTTP/1.1\r\n\r\n";
    Outcome first = feed(pipelined, 64, {});
    ASSERT_EQ(stateName(first.state), stateName(ParseState::Done));
    EXPECT_EQ(first.request.target, "/healthz");
    EXPECT_EQ(first.remainder, "GET /statz HTTP/1.1\r\n\r\n");
}

TEST(HttpParserFuzz, OversizedHeaderBlockIsRefusedWhateverTheChunking)
{
    // A header block that ends just past the cap: refused whole, not
    // only when it trickles in.
    const std::size_t cap = 16;
    std::string input = "GET / HTTP/1.1\r\nX-Big: " +
        std::string(cap + 8192, 'v') + "\r\n\r\n";
    Outcome whole = feed(input, cap, {});
    EXPECT_EQ(stateName(whole.state), stateName(ParseState::TooLarge));
    Outcome pieces =
        feed(input, cap, std::vector<std::size_t>(input.size() / 512 + 1, 512));
    EXPECT_EQ(stateName(pieces.state), stateName(ParseState::TooLarge));
}

} // namespace
} // namespace nvmexp
