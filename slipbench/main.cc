/**
 * slipbench: the repository's end-to-end benchmark program.
 *
 *   slipbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tmpdir DIR]
 *
 * Runs one workload (paper-cmp, ss-scaling, fault-campaign,
 * serve-mixed), prints every metric by name with its unit plus a digest
 * of the simulated statistics, and ends with one JSON line: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Exits 1 when a correctness check fails, 2 on bad usage.
 */

#include <algorithm>
#include <cstdlib>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <exception>
#include <iostream>
#include <string>

#include "bench_util.hh"
#include "workloads.hh"

using namespace slipbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: reported by every workload with --trace 0. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"sim_insts_per_s", "insts/s"},
    {"job_ms_p50", "ms"},     {"job_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics, reported by every workload with --trace 1; a
 * layer the workload does not exercise reads 0. The workload-specific
 * end-to-end figures (modelled results, cache latency, failures) are
 * here too, because each workload's result must carry every metric.
 */
constexpr MetricDef kPerLayer[] = {
    {"assembler.assemble_ms", "ms"},
    {"func.golden_ms", "ms"},
    {"func.golden_insts_per_s", "insts/s"},
    {"uarch.core_tick_s", "s"},
    {"uarch.fetch_s", "s"},
    {"uarch.ns_per_cycle", "ns"},
    {"slipstream.run_s", "s"},
    {"slipstream.trace_retire_s", "s"},
    {"slipstream.trace_retire_us_per_trace", "us"},
    {"slipstream.r_retire_s", "s"},
    {"slipstream.a_retire_s", "s"},
    {"slipstream.cores_and_walks_s", "s"},
    {"slipstream.removed_frac", "ratio"},
    {"slipstream.a_wasted_frac", "ratio"},
    {"slipstream.recoveries_per_kinst", "1/kinst"},
    {"slipstream.delay_buffer_packets", "count"},
    {"slipstream.delay_buffer_flushes", "count"},
    {"detect.slipstream.trial_ms_p50", "ms"},
    {"detect.replay.trial_ms_p50", "ms"},
    {"detect.checker.trial_ms_p50", "ms"},
    {"detect.replayed_frac", "ratio"},
    {"harness.plan_ms", "ms"},
    {"harness.trial_run_ms_p50", "ms"},
    {"harness.record_us_p50", "us"},
    {"harness.isolation_overhead_frac", "ratio"},
    {"harness.journal_bytes", "B"},
    {"serve.handshake_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_stores", "count"},
    {"serve.miss_batch_overhead_ms", "ms"},
    {"cmp_ipc_gain_pct", "%"},
    {"fault_coverage_pct", "%"},
    {"silent_corrupt_pct", "%"},
    {"cache_hit_pct", "%"},
    {"cached_batch_ms_p50", "ms"},
    {"cached_batch_ms_tail", "ms"},
    {"failed_frac", "ratio"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

int
usage(const std::string &why)
{
    std::cerr << "slipbench: " << why
              << "\nusage: slipbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tmpdir DIR]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

std::string
describe(const Summary &s)
{
    return "(n=" + std::to_string(s.n) + ", tail = p" +
           formatNumber(s.tailPct) + ")";
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(__GLIBC__)
    // Fix glibc's mmap threshold at its 128 KiB default. Left dynamic,
    // it grows after the first large free, and whether later predictor
    // tables are returned to the system then depends on thread timing:
    // peak RSS would vary by a quarter between identical runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        try {
            if (arg == "--workload" && hasValue) {
                o.workload = argv[++i];
                haveWorkload = true;
            } else if (arg == "--seed" && hasValue) {
                o.seed = std::stoull(argv[++i]);
            } else if (arg == "--seconds" && hasValue) {
                o.seconds = std::stod(argv[++i]);
            } else if (arg == "--trace" && hasValue) {
                o.trace = std::stoi(argv[++i]) != 0;
            } else if (arg == "--tmpdir" && hasValue) {
                o.tmpDir = argv[++i];
            } else {
                return usage("unknown argument '" + arg + "'");
            }
        } catch (const std::exception &) {
            return usage("bad value for " + arg);
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  o.workload) == workloadNames().end())
        return usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds >= 0.0))
        return usage("--seconds must be >= 0");

    std::cout << "slipbench workload=" << o.workload << " seed=" << o.seed
              << " seconds=" << formatNumber(o.seconds)
              << " trace=" << o.trace << "\n"
              << "note: modelled caches and predictors start cold in "
                 "every job; the timing model is unvalidated against "
                 "hardware, so no error figure is given\n";

    Report r;
    try {
        r = runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "slipbench: " << o.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    for (const std::string &line : r.notes)
        std::cout << "note: " << line << "\n";
    std::string digestBytes;
    for (const std::string &line : r.digest) {
        std::cout << "digest: " << line << "\n";
        digestBytes += line + "\n";
    }
    std::cout << "digest_fnv: " << std::hex << fnv1a(digestBytes) << std::dec
              << "\n";
    for (const std::string &why : r.failures)
        std::cout << "FAIL: " << why << "\n";

    // End-to-end values from the untraced passes. Every pass has the
    // same jobs; the tail percentile is chosen from the jobs of the
    // passes run whatever the budget, so it stays the same for a host
    // or a change that fits more passes into the budget.
    const auto minSamples = [&r](const std::vector<double> &samples) {
        return r.passS.empty()
                   ? samples.size()
                   : samples.size() / r.passS.size() * r.minPasses;
    };
    const Summary job = summarize(r.jobMs, minSamples(r.jobMs));
    std::vector<double> rates;
    for (size_t i = 0; i < r.passS.size() && i < r.passInsts.size(); ++i)
        rates.push_back(r.passInsts[i] / r.passS[i]);
    const Summary cached =
        summarize(r.cachedBatchMs, minSamples(r.cachedBatchMs));
    const double e2e[] = {
        median(r.setupS),
        median(r.passS),
        median(rates),
        job.p50,
        job.tail,
        r.peakRssMb,
    };
    if (!r.cachedBatchMs.empty()) {
        r.values["cached_batch_ms_p50"] = cached.p50;
        r.values["cached_batch_ms_tail"] = cached.tail;
    }
    r.values["failed_frac"] =
        r.attempted ? double(r.failed) / double(r.attempted) : 0.0;

    std::vector<Metric> out;
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
        const MetricDef &d = kEndToEnd[i];
        std::cout << "metric " << d.name << " = " << formatNumber(e2e[i])
                  << " " << d.unit;
        if (i == 0)
            std::cout << " (median of " << r.setupS.size() << " set-ups)";
        if (i == 1 || i == 2)
            std::cout << " (median of " << r.passS.size() << " passes)";
        if (i == 3 || i == 4)
            std::cout << " " << describe(job);
        std::cout << "\n";
        if (!o.trace)
            out.push_back({d.name, d.unit, e2e[i]});
    }
    for (const MetricDef &d : kPerLayer) {
        const auto it = r.values.find(d.name);
        if (it == r.values.end()) {
            if (o.trace)
                std::cout << "layer " << d.name << " = n/a (not exercised)\n";
        } else {
            std::cout << (o.trace ? "layer " : "metric ") << d.name << " = "
                      << formatNumber(it->second) << " " << d.unit;
            if (d.name == std::string("cached_batch_ms_tail"))
                std::cout << " " << describe(cached);
            std::cout << "\n";
        }
        if (o.trace)
            out.push_back(
                {d.name, d.unit, it == r.values.end() ? 0.0 : it->second});
    }
    for (const Metric &m : out)
        if (!validMetricName(m.name)) {
            std::cerr << "slipbench: invalid metric name " << m.name << "\n";
            return 1;
        }

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::cout << resultJson(correct, r.attempted, r.failed, out) << std::endl;
    return correct ? 0 : 1;
}
