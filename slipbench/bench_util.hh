/**
 * @file
 * Helpers of the end-to-end benchmark that do not depend on the
 * simulator: percentile selection, the span tracer with self-time
 * accounting, metric-name validation, and the result formatting.
 */

#ifndef SLIPBENCH_BENCH_UTIL_HH
#define SLIPBENCH_BENCH_UTIL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace slipbench
{

/** Host seconds on the steady clock. */
double nowS();

/** Host nanoseconds on the steady clock. */
int64_t nowNs();

/** Peak resident set of this process so far, in MB (VmHWM). */
double peakRssMb();

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> samples, double p);

/** The middle sample, or the mean of the two middle ones. */
double median(std::vector<double> samples);

/**
 * The highest of 50, 75, 90, 95, 99, 99.9, 99.99 that leaves at least
 * ten of `n` samples beyond its nearest rank; 0 when even the median
 * leaves fewer than ten (n < 20).
 */
double tailPercentile(size_t n);

/** Median and tail of one latency distribution (nearest rank). */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    double tailPct = 0.0; // which percentile `tail` is (0 = none)
    double tail = 0.0;
};

/**
 * Summarize samples. The tail percentile is the one tailPercentile()
 * picks for `tailFrom` samples (0: all of them); more samples only
 * leave more beyond it. When even the median leaves fewer than ten,
 * the tail falls back to the maximum (tailPct = 100).
 */
Summary summarize(const std::vector<double> &samples, size_t tailFrom = 0);

// ---------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------

/** Every span the benchmark records, one per layer boundary. */
enum class SpanName : uint8_t
{
    Setup,         // one set-up repetition
    Job,           // one simulation / trial / batch
    Assemble,      // assembler: assemble()
    Golden,        // func: FuncSim::run()
    UarchRun,      // uarch: the traced SS cycle loop
    CoreTick,      // uarch: OoOCore::tick
    Fetch,         // uarch: FetchSource::nextBlock (walk + prediction)
    SlipRun,       // slipstream: SlipstreamProcessor::run
    ARetire,       // slipstream: aCore().onRetire
    RRetire,       // slipstream: rCore().onRetire
    TraceRetire,   // slipstream: rSource().onPacketRetired
    TraceVerified, // slipstream: detector().onTraceVerified
    Recovery,      // slipstream: onRecoveryEvent
    Plan,          // harness: planCampaignTrials
    TrialRun,      // harness: runCampaignTrial
    Record,        // harness: recordCampaignTrial + campaignTrialLine
    Handshake,     // serve: Client::connect + handshake
    Batch,         // serve: Client::submitBatch
};

inline constexpr size_t kNumSpanNames = 18;

const char *spanNameText(SpanName name);

/**
 * Records spans on one thread. Each span knows its parent (the span
 * open when it started) and its job id. Every span's duration and
 * self time (duration minus the time its direct children cover) are
 * summed per name; spans opened with `keep` are also stored whole.
 * High-rate spans (one per simulated cycle) are summed only, so the
 * memory a run needs does not grow with its length.
 */
class Tracer
{
  public:
    struct Record
    {
        SpanName name;
        int64_t parent; // index into records(), -1 = none kept
        uint64_t job;
        int64_t startNs;
        int64_t endNs;
    };

    struct Total
    {
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    /** All following spans belong to this job. */
    void setJob(uint64_t job) { job_ = job; }

    void open(SpanName name, int64_t startNs, bool keep = false);

    /** Close the innermost open span. */
    void close(int64_t endNs);

    size_t depth() const { return stack_.size(); }

    const Total &
    total(SpanName name) const
    {
        return totals_[size_t(name)];
    }

    double totalS(SpanName name) const;
    double selfS(SpanName name) const;

    /** Summed duration of `child` spans opened directly in `parent`. */
    int64_t
    childNs(SpanName parent, SpanName child) const
    {
        return childNs_[size_t(parent)][size_t(child)];
    }

    const std::vector<Record> &records() const { return records_; }

    /** Sum another tracer's totals and append its records. */
    void merge(const Tracer &other);

  private:
    struct Open
    {
        SpanName name;
        int64_t startNs;
        int64_t childNs;
        int64_t record; // -1 unless kept
    };

    uint64_t job_ = 0;
    std::vector<Open> stack_;
    std::array<Total, kNumSpanNames> totals_{};
    std::array<std::array<int64_t, kNumSpanNames>, kNumSpanNames> childNs_{};
    std::vector<Record> records_;
};

/** RAII span on the steady clock; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *tracer, SpanName name, bool keep = false)
        : tracer_(tracer)
    {
        if (tracer_)
            tracer_->open(name, nowNs(), keep);
    }

    ~Span()
    {
        if (tracer_)
            tracer_->close(nowNs());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

// ---------------------------------------------------------------------
// Metrics and output
// ---------------------------------------------------------------------

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting alphanumeric. */
bool validMetricName(const std::string &name);

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Shortest decimal that round-trips the double (JSON-safe). */
std::string formatNumber(double value);

/** The final result line the benchmark prints. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics);

/** 64-bit FNV-1a, for compact digests of simulated statistics. */
uint64_t fnv1a(const std::string &bytes, uint64_t h = 0xcbf29ce484222325ull);

/** splitmix64 finalizer: derives independent seeds from one. */
uint64_t mixSeed(uint64_t x);

} // namespace slipbench

#endif // SLIPBENCH_BENCH_UTIL_HH
