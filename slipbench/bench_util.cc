#include "bench_util.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace slipbench
{

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over
    // execve, so a launcher's footprint would mask this process's.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

namespace
{

/** 1-based nearest rank of percentile p among n samples. */
size_t
nearestRank(double p, size_t n)
{
    // p * n is exact for the candidates and any practical n; the
    // division is not (99.9 / 100 * 10000 > 9990), so divide last.
    const size_t rank = size_t(std::ceil(p * double(n) / 100.0));
    return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(p, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double
tailPercentile(size_t n)
{
    static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 95.0,
                                             90.0,  75.0, 50.0};
    for (const double p : kCandidates)
        if (n >= nearestRank(p, n) + 10)
            return p;
    return 0.0;
}

Summary
summarize(const std::vector<double> &samples, size_t tailFrom)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.p50 = percentile(samples, 50.0);
    s.tailPct = tailPercentile(
        tailFrom ? std::min(tailFrom, samples.size()) : samples.size());
    if (s.tailPct == 0.0)
        s.tailPct = 100.0;
    s.tail = percentile(samples, s.tailPct);
    return s;
}

const char *
spanNameText(SpanName name)
{
    static constexpr const char *kNames[kNumSpanNames] = {
        "setup",           "job",
        "assemble",        "golden",
        "uarch.run",       "uarch.core_tick",
        "uarch.fetch",     "slipstream.run",
        "slipstream.a_retire", "slipstream.r_retire",
        "slipstream.trace_retire", "slipstream.trace_verified",
        "slipstream.recovery", "harness.plan",
        "harness.trial_run", "harness.record",
        "serve.handshake", "serve.batch",
    };
    return kNames[size_t(name)];
}

void
Tracer::open(SpanName name, int64_t startNs, bool keep)
{
    int64_t record = -1;
    if (keep) {
        int64_t parent = -1;
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
            if (it->record >= 0) {
                parent = it->record;
                break;
            }
        record = int64_t(records_.size());
        records_.push_back({name, parent, job_, startNs, startNs});
    }
    stack_.push_back({name, startNs, 0, record});
}

void
Tracer::close(int64_t endNs)
{
    const Open span = stack_.back();
    stack_.pop_back();
    const int64_t duration = endNs - span.startNs;
    Total &t = totals_[size_t(span.name)];
    ++t.count;
    t.totalNs += duration;
    t.selfNs += duration - span.childNs;
    if (!stack_.empty()) {
        stack_.back().childNs += duration;
        childNs_[size_t(stack_.back().name)][size_t(span.name)] += duration;
    }
    if (span.record >= 0)
        records_[size_t(span.record)].endNs = endNs;
}

double
Tracer::totalS(SpanName name) const
{
    return double(total(name).totalNs) * 1e-9;
}

double
Tracer::selfS(SpanName name) const
{
    return double(total(name).selfNs) * 1e-9;
}

void
Tracer::merge(const Tracer &other)
{
    for (size_t i = 0; i < kNumSpanNames; ++i) {
        totals_[i].count += other.totals_[i].count;
        totals_[i].totalNs += other.totals_[i].totalNs;
        totals_[i].selfNs += other.totals_[i].selfNs;
        for (size_t j = 0; j < kNumSpanNames; ++j)
            childNs_[i][j] += other.childNs_[i][j];
    }
    const int64_t base = int64_t(records_.size());
    for (Record r : other.records_) {
        if (r.parent >= 0)
            r.parent += base;
        records_.push_back(r);
    }
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out << ", ";
        out << "\"" << metrics[i].name << "\": {\"value\": "
            << formatNumber(metrics[i].value) << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

uint64_t
fnv1a(const std::string &bytes, uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
mixSeed(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace slipbench
