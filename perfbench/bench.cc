#include "bench.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        throw std::runtime_error("non-finite metric value");
    char buffer[64];
    auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
    if (ec != std::errc())
        throw std::runtime_error("cannot format metric value");
    return std::string(buffer, end);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Report::count(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

std::string
Report::resultLine() const
{
    std::string line = "{\"correct\": ";
    line += attempted_ > 0 && failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i)
            line += ", ";
        line += "\"" + metrics_[i].name + "\": {\"value\": " +
                formatDouble(metrics_[i].value) + ", \"unit\": \"" +
                metrics_[i].unit + "\"}";
    }
    line += "}}";
    return line;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p * (double)(values.size() - 1);
    auto lo = (std::size_t)std::floor(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - (double)lo;
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uintmax_t
directoryBytes(const std::string &dir)
{
    std::uintmax_t total = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            total += entry.file_size();
    return total;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
corrupted(std::string bytes)
{
    if (bytes.empty())
        return "\x01";
    bytes[0] = (char)(bytes[0] ^ 0x20);
    return bytes;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const std::string &name)
    : tracer_(tracer), index_((int)tracer.spans_.size())
{
    tracer_.spans_.push_back({name, tracer_.nowUs(), 0.0, tracer_.open_});
    tracer_.open_ = index_;
}

Tracer::Scope::~Scope()
{
    Span &span = tracer_.spans_[(std::size_t)index_];
    span.endUs = tracer_.nowUs();
    tracer_.open_ = span.parent;
    tracer_.samples_[span.name].push_back((span.endUs - span.beginUs) /
                                          1000.0);
}

void
Tracer::sample(const std::string &name, double value)
{
    if (enabled_)
        samples_[name].push_back(value);
}

double
Tracer::median(const std::string &name) const
{
    return perfbench::median(samples(name));
}

const std::vector<double> &
Tracer::samples(const std::string &name) const
{
    static const std::vector<double> none;
    auto it = samples_.find(name);
    return it == samples_.end() ? none : it->second;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string layer = s.name.substr(0, s.name.find('.'));
        std::string parent =
            s.parent < 0 ? "" : spans_[(std::size_t)s.parent].name;
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
            << "\", \"cat\": \"" << layer
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << formatDouble(s.beginUs)
            << ", \"dur\": " << formatDouble(s.endUs - s.beginUs)
            << ", \"args\": {\"id\": " << i << ", \"parent\": \""
            << parent << "\"}}";
    }
    out << "\n]}\n";
}

std::string
Tracer::selfTimeTable(std::size_t reps,
                      const std::string &replayRoot) const
{
    struct Row
    {
        std::size_t calls = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childMs[(std::size_t)s.parent] += (s.endUs - s.beginUs) / 1e3;

    std::map<std::string, Row> byName;
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double total = (s.endUs - s.beginUs) / 1e3;
        Row &row = byName[s.name];
        ++row.calls;
        row.totalMs += total;
        row.selfMs += total - childMs[i];
        int root = (int)i;
        while (spans_[(std::size_t)root].parent >= 0)
            root = spans_[(std::size_t)root].parent;
        if (spans_[(std::size_t)root].name == replayRoot)
            byLayer[s.name.substr(0, s.name.find('.'))] +=
                total - childMs[i];
    }

    double per = reps ? (double)reps : 1.0;
    std::ostringstream out;
    out << std::fixed << std::setprecision(3);
    out << "per-layer self time, mean of " << reps
        << " traced repetitions\n";
    out << "  " << std::left << std::setw(44) << "span" << std::right
        << std::setw(8) << "calls" << std::setw(12) << "total_ms"
        << std::setw(12) << "self_ms" << "\n";
    for (const auto &[name, row] : byName) {
        out << "  " << std::left << std::setw(44) << name << std::right
            << std::setw(8) << (double)row.calls / per
            << std::setw(12) << row.totalMs / per << std::setw(12)
            << row.selfMs / per << "\n";
    }
    out << "  " << std::left << std::setw(44)
        << ("layer (within " + replayRoot + ")") << std::right
        << std::setw(32) << "self_ms" << "\n";
    for (const auto &[layer, self] : byLayer) {
        out << "  " << std::left << std::setw(44) << layer << std::right
            << std::setw(32) << self / per << "\n";
    }
    return out.str();
}

} // namespace perfbench
