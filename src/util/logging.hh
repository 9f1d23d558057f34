/**
 * @file
 * Status-message helpers in the spirit of gem5's logging.hh.
 *
 * fatal()  -- the run cannot continue due to a user error (bad
 *             configuration, invalid arguments); exits with code 1.
 * panic()  -- something happened that should never happen regardless of
 *             user input (an internal bug); aborts.
 * warn()   -- functionality works but deserves user attention.
 * inform() -- normal operating status.
 */

#ifndef NVMEXP_UTIL_LOGGING_HH
#define NVMEXP_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace nvmexp {

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Emit a message at the given level; Fatal exits(1), Panic aborts.
 * Exposed so tests can exercise the formatting path via Inform/Warn.
 */
void logMessage(LogLevel level, const std::string &msg);

/** Globally silence Inform/Warn output (benches use this). */
void setQuiet(bool quiet);

/** @return true when Inform/Warn output is suppressed. */
bool isQuiet();

/**
 * RAII guard: while alive, inform() and warn() on this thread append
 * their lines to `lines` instead of printing them (and, under
 * setQuiet(true), drop them as ever). A sweep worker captures each
 * work item's messages so that the caller can print them in item
 * order, whatever order the items finished in. A fatal() on this
 * thread prints the lines captured so far before its own.
 */
class ScopedLogCapture
{
  public:
    explicit ScopedLogCapture(std::string &lines);
    ~ScopedLogCapture();

    ScopedLogCapture(const ScopedLogCapture &) = delete;
    ScopedLogCapture &operator=(const ScopedLogCapture &) = delete;

  private:
    std::string *previous_;
};

/** Print lines a ScopedLogCapture collected, as they were formatted. */
void printCaptured(const std::string &lines);

/**
 * What fatal() raises while a ScopedFatalThrows guard is active on the
 * calling thread. Carries the formatted message; nothing is printed.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive, fatal() on this thread throws FatalError
 * instead of printing and exiting. Batch validators (nvmexplorer_lint)
 * use this to turn per-file fatals into collected diagnostics; the
 * thread-local scope keeps sweep workers' fail-fast behavior intact.
 */
class ScopedFatalThrows
{
  public:
    ScopedFatalThrows();
    ~ScopedFatalThrows();

    ScopedFatalThrows(const ScopedFatalThrows &) = delete;
    ScopedFatalThrows &operator=(const ScopedFatalThrows &) = delete;

  private:
    bool previous_;
};

/** @return true when fatal() throws on this thread (guard active). */
bool fatalThrows();

/** Run `fn` under a ScopedFatalThrows guard: the message of the
 *  fatal() it raised, or empty when it returned normally. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    ScopedFatalThrows guard;
    try {
        fn();
    } catch (const FatalError &error) {
        return error.what();
    }
    return {};
}

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Args>
void
formatInto(std::ostringstream &os, const T &first, const Args &...rest)
{
    os << first;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
formatAll(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

/** Print an informational message. */
template <typename... Args>
void
inform(const Args &...args)
{
    logMessage(LogLevel::Inform, detail::formatAll(args...));
}

/** Print a warning. */
template <typename... Args>
void
warn(const Args &...args)
{
    logMessage(LogLevel::Warn, detail::formatAll(args...));
}

/** User error: print and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    logMessage(LogLevel::Fatal, detail::formatAll(args...));
    __builtin_unreachable();
}

/** Internal bug: print and abort(). */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    logMessage(LogLevel::Panic, detail::formatAll(args...));
    __builtin_unreachable();
}

} // namespace nvmexp

#endif // NVMEXP_UTIL_LOGGING_HH
