/**
 * Tests of the benchmark's own helpers, plus a smoke run of every
 * workload on test-size inputs. Run from the repository root:
 *
 *   .bench_build/slipbench/slipbench_tests [--no-smoke]
 *
 * --no-smoke skips the workload runs. Prints one line per failed
 * check and exits non-zero if any failed.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workloads.hh"

using namespace slipbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

void
testPercentiles()
{
    // Below 20 samples no percentile leaves ten beyond it.
    check(tailPercentile(19) == 0.0, "n=19 has no tail percentile");
    check(tailPercentile(20) == 50.0, "n=20 -> p50");
    check(tailPercentile(40) == 75.0, "n=40 -> p75");
    check(tailPercentile(99) == 75.0, "n=99 -> p75 (p90 leaves 9)");
    check(tailPercentile(100) == 90.0, "n=100 -> p90");
    check(tailPercentile(1000) == 99.0, "n=1000 -> p99");
    check(tailPercentile(10000) == 99.9, "n=10000 -> p99.9");

    // Whatever n, the chosen percentile leaves >= 10 samples beyond
    // its nearest rank and the next higher candidate would not.
    for (size_t n = 20; n < 3000; ++n) {
        const double p = tailPercentile(n);
        const size_t rank = size_t(std::ceil(p * double(n) / 100.0));
        check(n - rank >= 10, "ten beyond the tail at n=" + std::to_string(n));
    }

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    check(percentile(v, 50) == 50.0, "nearest-rank p50 of 1..100");
    check(median(v) == 50.5 && median({3.0, 1.0, 2.0}) == 2.0,
          "median of even and odd counts");
    check(percentile(v, 90) == 90.0, "nearest-rank p90 of 1..100");
    const Summary s = summarize(v);
    check(s.n == 100 && s.p50 == 50.0 && s.tailPct == 90.0 && s.tail == 90.0,
          "summary of 1..100");
    const Summary fixed = summarize(v, 40);
    check(fixed.n == 100 && fixed.tailPct == 75.0 && fixed.tail == 75.0,
          "tail percentile chosen from the first 40 samples' count");
    check(summarize(v, 1000).tailPct == 90.0,
          "tailFrom above the sample count uses the sample count");
    const Summary small = summarize({3.0, 1.0, 2.0});
    check(small.tailPct == 100.0 && small.tail == 3.0,
          "few samples: tail falls back to the maximum");
}

void
testSelfTime()
{
    Tracer t;
    t.setJob(7);
    t.open(SpanName::Job, 0, true);
    t.open(SpanName::SlipRun, 10, true);
    t.open(SpanName::RRetire, 12);
    t.open(SpanName::TraceRetire, 13);
    t.close(17); // trace_retire: 4
    t.close(20); // r_retire: 8, self 4
    t.open(SpanName::ARetire, 25);
    t.close(30); // a_retire: 5
    t.close(40); // run: 30, self 30 - 8 - 5 = 17
    t.close(100); // job: 100, self 70
    check(t.depth() == 0, "all spans closed");

    const auto ns = [&](SpanName n) { return t.total(n).totalNs; };
    const auto self = [&](SpanName n) { return t.total(n).selfNs; };
    check(ns(SpanName::SlipRun) == 30 && self(SpanName::SlipRun) == 17,
          "run self time");
    check(self(SpanName::RRetire) == 4, "r_retire self time");
    check(ns(SpanName::SlipRun) ==
              self(SpanName::SlipRun) + ns(SpanName::RRetire) +
                  ns(SpanName::ARetire),
          "run = self + children");
    check(ns(SpanName::Job) == self(SpanName::Job) + ns(SpanName::SlipRun),
          "job = self + children");
    check(t.childNs(SpanName::SlipRun, SpanName::RRetire) == 8 &&
              t.childNs(SpanName::SlipRun, SpanName::ARetire) == 5 &&
              t.childNs(SpanName::SlipRun, SpanName::TraceRetire) == 0 &&
              t.childNs(SpanName::RRetire, SpanName::TraceRetire) == 4,
          "direct-child totals");

    // Kept spans carry parent links and the job id.
    const std::vector<Tracer::Record> &recs = t.records();
    check(recs.size() == 2, "two kept spans");
    check(recs[1].parent == 0 && recs[0].parent == -1, "parent links");
    check(recs[1].job == 7 && recs[1].endNs - recs[1].startNs == 30,
          "record job id and duration");

    Tracer merged;
    merged.merge(t);
    merged.merge(t);
    check(merged.total(SpanName::SlipRun).count == 2 &&
              merged.records()[3].parent == 2,
          "merge sums totals and rebases parents");
}

void
testMetricNames()
{
    check(validMetricName("setup_s"), "setup_s");
    check(validMetricName("slipstream.trace_retire_us_per_trace"),
          "dotted name");
    check(validMetricName("detect.replay.trial_ms_p50"), "two dots");
    check(validMetricName("a-b_c.9"), "all allowed characters");
    check(!validMetricName(""), "empty");
    check(!validMetricName("_x"), "leading underscore");
    check(!validMetricName("wall s"), "space");
    check(!validMetricName("rate/s"), "slash");
    check(!validMetricName(std::string(65, 'a')), "65 characters");
    check(validMetricName(std::string(64, 'a')), "64 characters");

    check(formatNumber(0.5) == "0.5", "formatNumber 0.5");
    check(formatNumber(1.0 / 3.0) == "0.3333333333333333",
          "formatNumber keeps every digit");
    check(resultJson(true, 3, 0, {{"wall_s", "s", 1.5}}) ==
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
          "result line");
}

void
testSmoke()
{
    for (const std::string &w : workloadNames())
        for (const bool trace : {false, true}) {
            Options o;
            o.workload = w;
            o.seed = 3;
            o.seconds = 0; // the fewest passes the workload allows
            o.trace = trace;
            o.smoke = true;
            o.tmpDir = ".bench_build/test-" + w;
            const Report r = runWorkload(o);
            const std::string what = w + (trace ? " traced" : "");
            check(r.attempted > 0 && r.failed == 0,
                  what + ": smoke run passes its checks");
            for (const std::string &f : r.failures)
                std::cout << "  " << f << "\n";
            check(!r.passS.empty() && r.passS[0] > 0,
                  what + ": timed passes");
            check(r.setupS.size() == kSetupReps, what + ": set-up repeated");
            check(!r.jobMs.empty() && r.passInsts.size() == r.passS.size() &&
                      r.passInsts[0] > 0,
                  what + ": jobs timed and instructions counted");
            check(!r.digest.empty(), what + ": digest printed");
            if (trace)
                check(r.values.count("trace.traced_wall_s") == 1 &&
                          r.values.count("func.golden_ms") == 1,
                      what + ": traced layer values");
        }
}

} // namespace

int
main(int argc, char **argv)
{
    testPercentiles();
    testSelfTime();
    testMetricNames();
    if (!(argc > 1 && std::string(argv[1]) == "--no-smoke"))
        testSmoke();
    if (failures)
        std::cout << "FAILED: " << failures << " checks\n";
    else
        std::cout << "passed\n";
    return failures ? 1 : 0;
}
