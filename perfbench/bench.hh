/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the metric
 * report, timing statistics, the span recorder behind the traced run,
 * and the interface every workload implements.
 *
 * The benchmark drives the nvmexp library only through its public
 * headers. Spans are recorded here, around each call into a module,
 * never inside the library.
 */

#ifndef NVMEXP_PERFBENCH_BENCH_HH
#define NVMEXP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - begin)
        .count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunk sizes, for the benchmark's own smoke test. */
    bool smoke = false;
    /** Corrupt every reference so the correctness checks must fail. */
    bool wrongReference = false;
    /** Scratch directory for stores and campaigns (removed at exit). */
    std::string workDir;
    /** Where the traced run writes its Chrome trace-event file. */
    std::string traceFile;
    /** Source revision the binary was built from (recorded only). */
    std::string commit = "unknown";
    /** Sweep jobs, server workers and client connections:
     *  min(4, hardware threads). */
    int jobs = 1;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints: its metrics plus the correctness tally. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count one checked operation; `ok` false counts it failed. */
    void check(bool ok) { count(1, ok ? 0 : 1); }

    /** Count `attempted` checked operations, `failed` of them bad. */
    void count(std::uint64_t attempted, std::uint64_t failed);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

    /** {"correct", "attempted", "failed", "metrics"} on one line. */
    std::string resultLine() const;

  private:
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Shortest decimal that round-trips the double exactly. */
std::string formatDouble(double value);

double median(std::vector<double> values);

/** Linear interpolation between closest ranks; p in [0, 1]. */
double percentile(std::vector<double> values, double p);

/** Bytes of every regular file under `dir`. */
std::uintmax_t directoryBytes(const std::string &dir);

std::string readFile(const std::string &path);

/** `bytes` with its first byte changed: a reference that no correct
 *  output can match. */
std::string corrupted(std::string bytes);

/**
 * In-memory span recorder for the traced run. Each span is a name,
 * begin and end on one steady clock, and the span open when it began.
 * Every closed span also adds its duration (ms) to the sample list of
 * its name, and replays may add samples of their own (counts, bytes).
 * While disabled, span() just calls through and nothing is recorded:
 * that is the untraced side of the tracing-overhead comparison.
 */
class Tracer
{
  public:
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Run `body` inside a span called `name`. */
    template <typename F>
    decltype(auto)
    span(const std::string &name, F &&body)
    {
        if (!enabled_)
            return body();
        Scope scope(*this, name);
        return body();
    }

    /** Add one sample under `name` (ignored while disabled). */
    void sample(const std::string &name, double value);

    /** Median of the samples under `name`; 0 when there are none. */
    double median(const std::string &name) const;

    /** Every sample under `name`, in recording order. */
    const std::vector<double> &samples(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    void writeChromeTrace(const std::string &path) const;

    /**
     * Human-readable per-layer table: for every span name its calls,
     * total and self time (duration minus the part its child spans
     * cover), averaged over `reps` traced repetitions, then each
     * layer's (the name up to the first '.') summed self time over the
     * spans below a root span called `replayRoot`.
     */
    std::string selfTimeTable(std::size_t reps,
                              const std::string &replayRoot) const;

  private:
    struct Span
    {
        std::string name;
        double beginUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
    };

    /** Opens a span on construction and closes it on destruction, so
     *  a body that throws still leaves a well-formed span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    double nowUs() const;

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
    std::map<std::string, std::vector<double>> samples_;
};

/**
 * One benchmark workload. setup() is called once per object; an
 * untraced run builds several objects in turn, reports their median
 * set-up time as setup_s and measures with the last one.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build fixtures and run one untimed, checked warm-up. */
    virtual void setup(Report &report) = 0;

    /** Untraced measurement for Options::seconds: every end-to-end
     *  metric except setup_s and peak_rss_mb. */
    virtual void measure(Report &report) = 0;

    /** One real, untraced operation (one sweep, one campaign, one pass
     *  over the query shapes): the baseline for the traced replay. */
    virtual void operation(Tracer &tracer, Report &report) = 0;

    /** Replay the operation one layer call at a time under `tracer`,
     *  checking what it produces. */
    virtual void replay(Tracer &tracer, Report &report) = 0;

    /** Per-layer metrics from the replay samples. */
    virtual void layerMetrics(const Tracer &tracer, Report &report) = 0;
};

std::unique_ptr<Workload> makeSweepStore(const Options &options);
std::unique_ptr<Workload> makeSweepModel(const Options &options);
std::unique_ptr<Workload> makeCampaign(const Options &options);
std::unique_ptr<Workload> makeServeQuery(const Options &options);

} // namespace perfbench

#endif // NVMEXP_PERFBENCH_BENCH_HH
