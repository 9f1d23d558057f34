#include <gtest/gtest.h>

#include <string>

#include "util/flags.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace nvmexp {
namespace {

TEST(ParseCount, AcceptsWholeValuesInTheRange)
{
    const long maxJobs = ThreadPool::kMaxThreads;
    EXPECT_EQ(parseCount("--jobs", "0", 0, maxJobs), 0);
    EXPECT_EQ(parseCount("--jobs", "1", 0, maxJobs), 1);
    EXPECT_EQ(parseCount("--jobs", "256", 0, maxJobs), 256);
    EXPECT_EQ(parseCount("serve: --port", "65535", 0, 65535), 65535);
    EXPECT_EQ(parseCount("--top", "9007199254740992", 1,
                         (long)kMaxExactInteger),
              (long)kMaxExactInteger);
}

TEST(ParseCount, RefusesAnythingElseNamingFlagValueAndRange)
{
    // The --jobs bound, [0, ThreadPool::kMaxThreads], and nothing
    // else: not past either end, not a fraction, an exponent, NaN,
    // an infinity, a value past long, or text around the digits.
    ScopedFatalThrows guard;
    for (const char *text :
         {"-1", "257", "1e18", "-1e18", "99999999999999999999",
          "-99999999999999999999", "NaN", "nan", "inf", "Infinity",
          "1.5", "2.0", "abc", "", "0x10", "4 ", "4abc"}) {
        try {
            parseCount("--jobs", text, 0, ThreadPool::kMaxThreads);
            ADD_FAILURE() << "'" << text << "' was accepted";
        } catch (const FatalError &error) {
            EXPECT_EQ(std::string(error.what()),
                      std::string("--jobs '") + text +
                          "' must be an integer in [0, 256]");
        }
    }
    EXPECT_THROW(parseCount("serve: --port", "65536", 0, 65535),
                 FatalError);
    EXPECT_THROW(parseCount("--top", "0", 1, (long)kMaxExactInteger),
                 FatalError);
    EXPECT_THROW(parseCount("--top", "9007199254740993", 1,
                            (long)kMaxExactInteger),
                 FatalError);
}

} // namespace
} // namespace nvmexp
