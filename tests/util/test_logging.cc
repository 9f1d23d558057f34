#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "util/logging.hh"

namespace nvmexp {
namespace {

TEST(Logging, FormatAllConcatenatesArguments)
{
    EXPECT_EQ(detail::formatAll("a", 1, "-", 2.5), "a1-2.5");
    EXPECT_EQ(detail::formatAll(), "");
    EXPECT_EQ(detail::formatAll(42), "42");
}

TEST(Logging, QuietFlagRoundTrips)
{
    bool initial = isQuiet();
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
    setQuiet(initial);
}

TEST(Logging, InformAndWarnDoNotTerminate)
{
    setQuiet(true);
    inform("informational ", 1);
    warn("warning ", 2);
    setQuiet(false);
    SUCCEED();
}

TEST(Logging, CaptureCollectsThisThreadsLinesInOrder)
{
    bool initial = isQuiet();
    setQuiet(false);
    std::string outer, inner;
    ::testing::internal::CaptureStderr();
    {
        ScopedLogCapture capture(outer);
        warn("one");
        {
            ScopedLogCapture nested(inner);
            inform("two");
        }
        warn("three");
        std::thread([] { warn("other thread"); }).join();
    }
    warn("after");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "warn: other thread\nwarn: after\n");
    EXPECT_EQ(outer, "warn: one\nwarn: three\n");
    EXPECT_EQ(inner, "info: two\n");

    ::testing::internal::CaptureStderr();
    printCaptured(outer);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), outer);

    setQuiet(true);
    std::string dropped;
    {
        ScopedLogCapture capture(dropped);
        warn("quiet");
    }
    EXPECT_EQ(dropped, "");
    setQuiet(initial);
}

TEST(LoggingDeath, FatalPrintsCapturedLinesFirst)
{
    EXPECT_EXIT(
        {
            setQuiet(false);
            std::string lines;
            ScopedLogCapture capture(lines);
            warn("context");
            fatal("boom");
        },
        ::testing::ExitedWithCode(1), "warn: context\nfatal: boom");
}

TEST(LoggingDeath, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(fatal("boom"), ::testing::ExitedWithCode(1), "boom");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("bug ", 7), "bug 7");
}

TEST(LoggingDeath, FatalFormatsAllArguments)
{
    EXPECT_EXIT(fatal("x=", 3, " y=", 4.5),
                ::testing::ExitedWithCode(1), "x=3 y=4.5");
}

} // namespace
} // namespace nvmexp
