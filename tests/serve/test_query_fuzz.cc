/**
 * @file
 * Seeded fuzz of the query server's /query endpoint, in the style of
 * tests/util/test_json_fuzz.cc (fixed seed, bounded rounds): valid
 * query bodies are mutated (truncated, byte-flipped, nested deeply,
 * given hostile top_k.k and bound values, repeated or unknown keys)
 * and handed straight to QueryServer::dispatch. Every answer is a 200
 * or a 400 whose body is {"error": ...}, and the server goes on
 * answering. Also pins the reproducer of a remote crash: a 400k-deep
 * [...] body, under the 1 MiB body cap, used to overflow the stack; and
 * checks that a member inserted into any object is refused by name.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "../support/fixtures.hh"
#include "core/parallel_sweep.hh"
#include "serve/server.hh"
#include "store/result_store.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nvmexp {
namespace {

/** The store every member of the suite serves (built once). */
const std::string &
fuzzStore()
{
    static const std::string dir = [] {
        setQuiet(true);
        std::string path = ::testing::TempDir() + "nvmexp_query_fuzz_store";
        std::filesystem::remove_all(path);
        SweepConfig config = testsupport::smallSweep();
        config.outDir = path;
        ParallelSweepRunner(1).run(config);
        setQuiet(false);
        return path;
    }();
    return dir;
}

/** A server with its index loaded and no socket: dispatch() only. */
class QueryFuzzTest : public testsupport::QuietTest
{
  protected:
    void
    SetUp() override
    {
        testsupport::QuietTest::SetUp();
        serve::ServeOptions options;
        options.storeDir = fuzzStore();
        server_ = std::make_unique<serve::QueryServer>(options);
        std::string error;
        ASSERT_TRUE(server_->reload(error)) << error;
    }

    serve::HttpResponse
    post(const std::string &body)
    {
        serve::HttpRequest request;
        request.method = "POST";
        request.target = "/query";
        request.version = "HTTP/1.1";
        request.body = body;
        return server_->dispatch(request);
    }

    /** A 400's body is exactly {"error": "<non-empty message>"}: the
     *  message, or "" when the body is anything else. */
    static std::string
    expectErrorBody(const serve::HttpResponse &response,
                    const std::string &body)
    {
        std::string message;
        bool ok = JsonReader::tryRead(response.body, [&](JsonReader &r) {
            std::string_view name;
            r.beginObject();
            if (!r.nextMember(name) || name != "error" ||
                r.peek() != JsonValue::Kind::String)
                r.reject("not an error body");
            message = r.string();
            if (r.nextMember(name))
                r.reject("more than the error");
        });
        EXPECT_TRUE(ok) << response.body;
        EXPECT_FALSE(message.empty()) << body;
        return message;
    }

    std::unique_ptr<serve::QueryServer> server_;
};

const char *const kSeeds[] = {
    "{}",
    R"({"constraints": ["total_power<0.5"]})",
    R"({"constraints": [{"metric": "read_latency", "op": "<=", )"
    R"("bound": 1e-8}]})",
    R"({"pareto": ["total_power", "read_latency"]})",
    R"({"top_k": {"metric": "read_edp", "k": 5}})",
    R"({"format": 2, "constraints": ["lifetime_years>=1"], )"
    R"("pareto": ["total_power", "read_latency"], )"
    R"("top_k": {"metric": "total_power", "k": 3}})",
};

/** Values a peer may put where a count or a bound belongs. */
const char *const kHostile[] = {
    "-1", "0", "-0", "0.5", "1", "1e300", "-1e300", "NaN", "Infinity",
    "-Infinity", "9007199254740992", "9007199254740993",
    "18446744073709551616", "1e-320", "\"5\"", "null", "true", "[]", "{}",
};

/** `depth` nested arrays (or single-member objects) around a 0. */
std::string
nested(std::size_t depth, bool objects)
{
    std::string text;
    for (std::size_t i = 0; i < depth; ++i)
        text += objects ? "{\"a\": " : "[";
    text += "0";
    text.append(depth, objects ? '}' : ']');
    return text;
}

/** One mutated query body. */
std::string
mutated(Rng &rng)
{
    std::string body = kSeeds[rng.range(std::size(kSeeds))];
    auto hostile = [&] {
        return std::string(kHostile[rng.range(std::size(kHostile))]);
    };
    switch (rng.range(7)) {
      case 0: // cut short anywhere
        body.resize(rng.range(body.size() + 1));
        break;
      case 1: // a few bytes set to anything
        for (std::uint64_t n = 1 + rng.range(4); n > 0; --n)
            body[rng.range(body.size())] = (char)rng.range(256);
        break;
      case 2: { // nesting around the reader's depth cap, and far past it
        std::size_t depth = 0;
        bool objects = rng.bernoulli(0.5);
        switch (rng.range(3)) {
          case 0:
            depth = JsonValue::kMaxDepth - 2 + rng.range(5);
            break;
          case 1:
            depth = rng.range(4 * JsonValue::kMaxDepth);
            break;
          default: // deep enough to overflow a recursive decoder, < 1 MiB
            depth = 300000 + rng.range(200000);
            objects = false;
            break;
        }
        std::string deep = nested(depth, objects);
        const char *const wrappers[] = {"", "pareto", "constraints",
                                        "top_k", "format"};
        std::string key = wrappers[rng.range(std::size(wrappers))];
        body = key.empty() ? deep : "{\"" + key + "\": " + deep + "}";
        break;
      }
      case 3:
        body = R"({"top_k": {"metric": "read_edp", "k": )" + hostile() +
            "}}";
        break;
      case 4:
        body = R"({"constraints": [{"metric": "total_power", "op": "<", )"
               R"("bound": )" +
            hostile() + "}]}";
        break;
      case 5: { // a repeated member, at the top or inside a record
        const char *const repeats[] = {
            R"({"pareto": ["total_power"], "pareto": ["read_latency"]})",
            R"({"top_k": {"metric": "read_edp", "k": 1, "k": 2}})",
            R"({"constraints": [{"metric": "total_power", )"
            R"("metric": "area_m2", "op": "<", "bound": 1}]})",
            R"({"format": 2, "format": 2})"};
        body = repeats[rng.range(std::size(repeats))];
        break;
      }
      default: { // an unknown member beside the known ones
        const char *const unknown[] = {"paretto", "top-k", "", "\\u0000",
                                       "constraints ", "FORMAT"};
        std::string key = unknown[rng.range(std::size(unknown))];
        body.insert(1, "\"" + key + "\": " + hostile() +
                           (body.size() > 2 ? ", " : ""));
        break;
      }
    }
    return body;
}

TEST_F(QueryFuzzTest, MutatedBodiesGet200OrStructured400)
{
    Rng rng(0x0F0E57);
    int ok = 0, refused = 0;
    for (int round = 0; round < 2000; ++round) {
        std::string body = mutated(rng);
        serve::HttpResponse response = post(body);
        if (response.status == 200) {
            std::vector<EvalResult> rows;
            EXPECT_TRUE(store::tryReadJson(response.body, rows)) << body;
            ++ok;
        } else {
            ASSERT_EQ(response.status, 400) << body;
            expectErrorBody(response, body);
            ++refused;
        }
    }
    EXPECT_GT(ok, 200);
    EXPECT_GT(refused, 1000);
    EXPECT_EQ(server_->counters().badRequests, (std::uint64_t)refused);

    // The server still answers a plain query with the offline bytes.
    serve::HttpResponse after = post("{}");
    EXPECT_EQ(after.status, 200);
    EXPECT_EQ(after.body, store::serializeResults(store::queryStore(
                              fuzzStore(), store::StoreQuery{})));
}

/** "format" is a whole number checked before any cast: 2.5 must not
 *  read as format 2, and 1e300 would be an undefined float-to-int
 *  cast. */
TEST_F(QueryFuzzTest, FormatMustBeTheWholeFormatVersion)
{
    for (const char *format : {"2.5", "1e300", "-1", "NaN", "Infinity",
                               "-Infinity", "1", "3", "\"2\""}) {
        std::string body = std::string("{\"format\": ") + format + "}";
        serve::HttpResponse response = post(body);
        EXPECT_EQ(response.status, 400) << body;
        expectErrorBody(response, body);
        EXPECT_NE(response.body.find("format"), std::string::npos)
            << response.body;
    }
    // The refusal names the value exactly (shortest round trip), not
    // cast or rounded to six digits.
    EXPECT_NE(post("{\"format\": 2.0000000001}").body.find("2.0000000001"),
              std::string::npos);

    for (const char *format : {"2", "2.0", "2e0"}) {
        std::string body = std::string("{\"format\": ") + format + "}";
        EXPECT_EQ(post(body).status, 200) << body;
    }
}

/** The reproducer: 400k nested arrays (800 KB, under the 1 MiB body
 *  cap) once parsed into a DOM whose recursive destructor overflowed
 *  the stack. The query's decoder refuses it at its first byte, as it
 *  refuses any document that is not an object, and the next request is
 *  served. */
TEST_F(QueryFuzzTest, FourHundredThousandDeepBodyGets400)
{
    std::string body = nested(400000, false);
    ASSERT_LT(body.size(), serve::ServeOptions{}.maxBodyBytes);
    serve::HttpResponse response = post(body);
    EXPECT_EQ(response.status, 400);
    std::string error = expectErrorBody(response, "400k-deep arrays");
    EXPECT_NE(error.find("line 1 column 1: a store query must be a JSON "
                         "object"),
              std::string::npos)
        << error;
    // Deep inside a member, the member's decoder refuses it as early.
    response = post("{\"constraints\": " + body + "}");
    EXPECT_EQ(response.status, 400);
    error = expectErrorBody(response, "400k-deep clause");
    EXPECT_NE(error.find("line 1 column 18: constraints[0]: must be a "),
              std::string::npos)
        << error;

    serve::HttpResponse next = post("{}");
    EXPECT_EQ(next.status, 200);
}

/** The same bytes as a query.json for the CLI's `query --query`: a
 *  fatal naming the file instead of SIGSEGV. */
TEST_F(QueryFuzzTest, FourHundredThousandDeepQueryFileIsRefusedByName)
{
    std::string path = ::testing::TempDir() + "nvmexp_deep_query.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << nested(400000, false);
    }
    ScopedFatalThrows guard;
    try {
        store::StoreQuery query;
        store::readJsonFile(path, query);
        ADD_FAILURE() << "a 400k-deep query file was accepted";
    } catch (const FatalError &e) {
        std::string error = e.what();
        EXPECT_NE(error.find("'" + path + "' at line 1 column 1"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("must be a JSON object"), std::string::npos)
            << error;
    }
    std::filesystem::remove(path);
}

/** Differential: a member no table declares, inserted into any object
 *  of a valid body at any depth (the query, a clause object, top_k),
 *  is refused with a 400 naming it, its line and its column. At the
 *  parent the nested ones were dropped and answered 200. */
TEST_F(QueryFuzzTest, UnknownMemberAtAnyDepthGets400NamingIt)
{
    std::size_t checked = 0;
    for (const char *seed : kSeeds) {
        for (std::size_t at : testsupport::objectOpenings(seed)) {
            std::string where;
            std::string body = testsupport::unknownMemberAt(seed, at, where);
            serve::HttpResponse response = post(body);
            ASSERT_EQ(response.status, 400) << body;
            std::string error = expectErrorBody(response, body);
            EXPECT_NE(error.find(where + ": "), std::string::npos)
                << body << "\n" << error;
            EXPECT_NE(error.find(std::string("unknown member \"") +
                                 testsupport::kUnknownMember + "\""),
                      std::string::npos)
                << body << "\n" << error;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 9u);
}

} // namespace
} // namespace nvmexp
