/**
 * @file
 * The benchmark's four workloads. Each one sets up (several times, so
 * set-up time is a median), runs timed passes of a fixed, seed-derived
 * job list until its time budget is spent, then verifies every result
 * outside the timed region. A traced run adds passes under the span
 * tracer and turns the spans into per-layer metrics.
 */

#ifndef SLIPBENCH_WORKLOADS_HH
#define SLIPBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace slipbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; // timed budget; 0 = the minimum passes only
    bool trace = false;

    /** Test-size inputs, one pass (the helper tests). */
    bool smoke = false;

    /** Throwaway directory for journals, sockets and caches. */
    std::string tmpDir = ".bench_build/tmp";
};

/** Set-up repetitions per run; `setup_s` is their median. */
inline constexpr unsigned kSetupReps = 11;

/** What one workload run measured and checked. */
struct Report
{
    std::vector<double> setupS;        // one per set-up repetition
    std::vector<double> passS;         // untraced timed passes
    std::vector<double> tracedPassS;   // traced passes (trace mode)
    std::vector<double> jobMs;         // untraced job latencies
    std::vector<double> cachedBatchMs; // serve: cache-only batches
    std::vector<double> passInsts;     // program insts each pass simulated
    unsigned minPasses = 1;            // passes run whatever the budget
    double peakRssMb = 0.0;            // after the minimum passes

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; // one line per failed check

    /** Human-readable notes (shape references, per-program gains). */
    std::vector<std::string> notes;

    /** Every simulated statistic, one line per job or campaign. */
    std::vector<std::string> digest;

    /**
     * Workload-specific and per-layer values by metric name; names
     * missing here are reported as 0 ("not exercised").
     */
    std::map<std::string, double> values;

    void fail(const std::string &why);
};

/** The workload names, in the order the benchmark documents them. */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::invalid_argument for unknown names. */
Report runWorkload(const Options &opts);

} // namespace slipbench

#endif // SLIPBENCH_WORKLOADS_HH
