#include "util/logging.hh"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace nvmexp {

namespace {

/** Atomic: the CLI sets quiet once up front, but sweep workers and
 *  the serve accept loop read it concurrently ever after. */
std::atomic<bool> quietFlag{false};

/** Thread-local so a lint thread's guard never changes how a
 *  concurrent sweep worker's fatal() behaves. */
thread_local bool fatalThrowsFlag = false;

/** Where this thread's inform()/warn() lines go while a
 *  ScopedLogCapture is alive; null prints them. */
thread_local std::string *capturedLines = nullptr;

/** Print (or capture) one Inform/Warn line unless quiet. */
void
emit(const char *prefix, const std::string &msg)
{
    if (quietFlag)
        return;
    if (capturedLines) {
        capturedLines->append(prefix).append(msg).push_back('\n');
        return;
    }
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

/**
 * Serialize fatal() exits: sweep workers run on a thread pool, so a
 * fatal can fire on a worker while siblings are still executing.
 * Concurrent std::exit is undefined behavior, and even a single
 * std::exit would run static destructors while other workers still
 * read function-local statics (opt-target tables, ECC tables). The
 * first fatal thread flushes stdio and _Exits — skipping static
 * destruction entirely, which is safe because nothing here owns
 * external state beyond FILE buffers; any other thread that also hits
 * fatal after printing its message parks forever (the process is
 * already going down).
 */
[[noreturn]] void
exitOnce(int code)
{
    static std::once_flag flag;
    bool winner = false;
    std::call_once(flag, [&] { winner = true; });
    if (winner) {
        std::fflush(nullptr);
        std::_Exit(code);
    }
    std::mutex m;
    std::condition_variable cv;
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [] { return false; });
    __builtin_unreachable();
}

} // namespace

ScopedFatalThrows::ScopedFatalThrows() : previous_(fatalThrowsFlag)
{
    fatalThrowsFlag = true;
}

ScopedFatalThrows::~ScopedFatalThrows()
{
    fatalThrowsFlag = previous_;
}

bool
fatalThrows()
{
    return fatalThrowsFlag;
}

ScopedLogCapture::ScopedLogCapture(std::string &lines)
    : previous_(capturedLines)
{
    capturedLines = &lines;
}

ScopedLogCapture::~ScopedLogCapture()
{
    capturedLines = previous_;
}

void
printCaptured(const std::string &lines)
{
    std::fputs(lines.c_str(), stderr);
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
isQuiet()
{
    return quietFlag;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    switch (level) {
      case LogLevel::Inform:
        emit("info: ", msg);
        break;
      case LogLevel::Warn:
        emit("warn: ", msg);
        break;
      case LogLevel::Fatal:
        if (fatalThrowsFlag)
            throw FatalError(msg);
        if (capturedLines)
            printCaptured(*capturedLines);
        std::fprintf(stderr, "fatal: %s\n", msg.c_str());
        exitOnce(1);
      case LogLevel::Panic:
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
        std::abort();
    }
}

} // namespace nvmexp
