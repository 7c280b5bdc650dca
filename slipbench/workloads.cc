#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include "assembler/assembler.hh"
#include "common/random.hh"
#include "detect/detection_backend.hh"
#include "func/func_sim.hh"
#include "fuzz/generator.hh"
#include "harness/experiment.hh"
#include "harness/fault_campaign.hh"
#include "harness/sim_runner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/ss_processor.hh"
#include "workloads/workloads.hh"

namespace slipbench
{

using slip::Cycle;
using slip::DetectBackendKind;
using slip::DynInst;
using slip::FaultCampaignConfig;
using slip::RunMetrics;
using slip::WorkloadSize;

void
Report::fail(const std::string &why)
{
    ++failed;
    failures.push_back(why);
}

namespace
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Programs: the eight paper workloads plus seeded generated ones
// ---------------------------------------------------------------------

struct BenchProgram
{
    std::string name;
    bool paper;
    slip::Program program;
    std::string golden;
    uint64_t goldenInsts;
};

/** Generated-program shape; `iters` sets every top-level trip count. */
slip::fuzz::GeneratorConfig
generatedConfig(unsigned iters)
{
    slip::fuzz::GeneratorConfig cfg;
    cfg.arenaWords = 1024; // masks above 2048 overflow andi's immediate
    cfg.minLoops = 2;
    cfg.maxLoops = 4;
    cfg.minIters = cfg.maxIters = iters;
    cfg.minStmts = 4;
    cfg.maxStmts = 10;
    return cfg;
}

uint64_t
functionalInsts(const std::string &source)
{
    const slip::Program program = slip::assemble(source);
    slip::FuncSim sim(program);
    return sim.run().instCount;
}

/**
 * fuzz::generate(seed) scaled to about `targetInsts` dynamic
 * instructions. With equal minimum and maximum trip counts the
 * generator draws the same program shape for any trip count, and the
 * dynamic length is linear in it; two probe runs fix the trip count
 * that gives the target length, so runs with different seeds do
 * comparable amounts of work.
 */
std::string
sizedGeneratedSource(uint64_t seed, uint64_t targetInsts)
{
    constexpr unsigned kProbeIters = 64;
    const auto length = [&](unsigned iters) {
        return functionalInsts(
            slip::fuzz::generate(seed, generatedConfig(iters)).render());
    };
    const uint64_t base = length(kProbeIters);
    const uint64_t perIter =
        std::max<uint64_t>((length(2 * kProbeIters) - base) / kProbeIters, 1);
    const uint64_t fixed = base - std::min(base, perIter * kProbeIters);
    const uint64_t iters = std::clamp<uint64_t>(
        (targetInsts - std::min(targetInsts, fixed)) / perIter, 1, 1u << 24);
    return slip::fuzz::generate(seed, generatedConfig(unsigned(iters)))
        .render();
}

std::vector<BenchProgram>
buildPrograms(WorkloadSize size, uint64_t seed, unsigned generated,
              uint64_t generatedInsts, Tracer *tr)
{
    struct Source
    {
        std::string name;
        bool paper;
        std::string text;
    };
    std::vector<Source> sources;
    for (const slip::Workload &w : slip::allWorkloads(size))
        sources.push_back({w.name, true, w.source});
    for (unsigned i = 0; i < generated; ++i)
        sources.push_back({"gen" + std::to_string(seed + i), false,
                           sizedGeneratedSource(seed + i, generatedInsts)});

    std::vector<BenchProgram> progs;
    for (const Source &src : sources) {
        std::optional<slip::Program> program;
        {
            Span span(tr, SpanName::Assemble);
            program.emplace(slip::assemble(src.text));
        }
        slip::FuncRunResult r;
        {
            Span span(tr, SpanName::Golden);
            slip::FuncSim sim(*program);
            r = sim.run();
        }
        if (!r.halted)
            throw std::runtime_error(src.name + " did not halt functionally");
        progs.push_back({src.name, src.paper, std::move(*program), r.output,
                         r.instCount});
    }
    return progs;
}

uint64_t
goldenInsts(const std::vector<BenchProgram> &progs)
{
    uint64_t insts = 0;
    for (const BenchProgram &p : progs)
        insts += p.goldenInsts;
    return insts;
}

/**
 * Concurrent workers and clients. They leave one core to the
 * supervising process and the system: with every core busy, trial
 * latency spread rose from 4 % to 15 % between runs on a 4-vCPU host.
 */
unsigned
workerCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 2u, 4u) - 1;
}

/**
 * Moves the calling thread to another of the CPUs it may use for each
 * job or set-up repetition. On a shared host the vCPUs slow down
 * independently: one ran a fixed loop 1.4x slower than another at the
 * same moment, each switching between the two speeds every few
 * seconds. Serial work left on one vCPU follows that vCPU's state;
 * rotating spreads it over all of them. The original affinity is
 * restored on destruction, so the worker threads of the timed passes
 * may run on every CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof(original_), &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Run on the k-th allowed CPU (mod their count) from now on. */
    void
    select(size_t k)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

/** Set-up layer values: per set-up repetition, summed over programs. */
void
setupLayerValues(const Tracer &tr, uint64_t insts, Report &r)
{
    if (tr.total(SpanName::Golden).count == 0)
        return; // untraced set-up
    r.values["assembler.assemble_ms"] =
        tr.totalS(SpanName::Assemble) * 1e3 / kSetupReps;
    r.values["func.golden_ms"] =
        tr.totalS(SpanName::Golden) * 1e3 / kSetupReps;
    const double goldenS = tr.totalS(SpanName::Golden);
    if (goldenS > 0)
        r.values["func.golden_insts_per_s"] =
            double(insts) * kSetupReps / goldenS;
}

/**
 * Run `setup` kSetupReps times, each on the next CPU, timing each; the
 * last result is the one the timed passes use.
 */
template <class Setup>
auto
repeatedSetup(Report &r, Tracer *tr, Setup &&setup)
{
    CpuRotation rotation;
    for (unsigned rep = 1;; ++rep) {
        rotation.select(rep);
        const double t0 = nowS();
        auto state = [&] {
            Span span(tr, SpanName::Setup, true);
            return setup(tr);
        }();
        r.setupS.push_back(nowS() - t0);
        if (rep >= kSetupReps)
            return state;
    }
}

/**
 * Run whole passes until the next one would overrun `budgetS`, and at
 * least `minPasses`. Returns each pass's host seconds. `rssMb`, when
 * given, receives the peak RSS after the minimum passes: the results
 * kept for verification grow with every pass, so a later reading would
 * depend on how many passes fit into the budget.
 */
template <class Pass>
std::vector<double>
timedPasses(double budgetS, unsigned minPasses, Pass &&pass,
            double *rssMb = nullptr)
{
    std::vector<double> passS;
    const double start = nowS();
    do {
        const double t0 = nowS();
        pass();
        passS.push_back(nowS() - t0);
        if (rssMb && passS.size() == minPasses)
            *rssMb = peakRssMb();
    } while (passS.size() < minPasses ||
             nowS() - start + passS.back() <= budgetS);
    return passS;
}

/**
 * Passes needed for `samples` jobs (40: p75, 200: p95), recorded in
 * the report: the tail percentile is chosen from the jobs of these
 * passes, so it stays the same however many passes the budget allows.
 */
unsigned
passesFor(const Options &o, size_t jobsPerPass, size_t samples, Report &r)
{
    r.minPasses =
        o.smoke ? 1 : unsigned((samples + jobsPerPass - 1) / jobsPerPass);
    return r.minPasses;
}

/** Budget of the untraced passes: all of it, or half in trace mode. */
double
untracedBudget(const Options &o)
{
    return o.trace ? o.seconds / 2 : o.seconds;
}

/** One note line per span name: count, total and self time. */
void
noteSpans(const Tracer &tr, Report &r)
{
    for (size_t i = 0; i < kNumSpanNames; ++i) {
        const Tracer::Total &t = tr.total(SpanName(i));
        if (t.count == 0)
            continue;
        r.notes.push_back(std::string("span ") + spanNameText(SpanName(i)) +
                          " count=" + std::to_string(t.count) + " total_s=" +
                          formatNumber(double(t.totalNs) * 1e-9) +
                          " self_s=" + formatNumber(double(t.selfNs) * 1e-9));
    }
}

void
setTraceWall(Report &r, double untracedS, double tracedS)
{
    r.values["trace.untraced_wall_s"] = untracedS;
    r.values["trace.traced_wall_s"] = tracedS;
    if (untracedS > 0)
        r.values["trace.overhead_frac"] = tracedS / untracedS - 1.0;
}

// ---------------------------------------------------------------------
// Simulation jobs, untraced (public entry points) and traced
// ---------------------------------------------------------------------

enum class Model : uint8_t
{
    SS64x4,
    SS128x8,
    CMP,
};

struct SimJob
{
    const BenchProgram *prog = nullptr;
    Model model = Model::SS64x4;
    slip::AStreamPolicyKind policy = slip::AStreamPolicyKind::IRRemoval;

    std::string
    label() const
    {
        switch (model) {
          case Model::SS64x4:
            return "SS(64x4)";
          case Model::SS128x8:
            return "SS(128x8)";
          case Model::CMP:
            break;
        }
        return std::string("CMP(2x64x4)/") + slip::aStreamPolicyName(policy);
    }
};

slip::SlipstreamParams
cmpParams(slip::AStreamPolicyKind policy)
{
    slip::SlipstreamParams p = slip::cmp2x64x4Params();
    p.aPolicy = {};
    p.aPolicy.kind = policy;
    return p;
}

RunMetrics
runUntraced(const SimJob &j)
{
    const BenchProgram &p = *j.prog;
    switch (j.model) {
      case Model::SS64x4:
        return slip::runSS(p.program, slip::ss64x4Params(), j.label(),
                           p.golden);
      case Model::SS128x8:
        return slip::runSS(p.program, slip::ss128x8Params(), j.label(),
                           p.golden);
      case Model::CMP:
        break;
    }
    return slip::runSlipstream(p.program, cmpParams(j.policy), p.golden);
}

/** FetchSource wrapper timing every nextBlock() call. */
class TimedFetch : public slip::FetchSource
{
  public:
    TimedFetch(slip::FetchSource &inner, Tracer *tr)
        : inner_(inner), tr_(tr)
    {}

    bool
    nextBlock(slip::FetchBlock &block) override
    {
        Span span(tr_, SpanName::Fetch);
        return inner_.nextBlock(block);
    }

    bool exhausted() const override { return inner_.exhausted(); }

  private:
    slip::FetchSource &inner_;
    Tracer *tr_;
};

/**
 * SSProcessor rebuilt from its parts (TracePredictor +
 * TraceFetchSource + OoOCore) so that each core tick and each fetch
 * block can be timed. The cycle count must equal SSProcessor::run's.
 */
RunMetrics
tracedSS(const BenchProgram &p, const slip::CoreParams &core,
         const std::string &label, Tracer *tr)
{
    slip::TracePredictor predictor{slip::TracePredParams{}};
    slip::TraceFetchSource source(p.program, predictor, core.fetchWidth,
                                  slip::TracePolicy{});
    TimedFetch fetch(source, tr);
    slip::OoOCore c(core, fetch);
    c.onRetire = [&source](const DynInst &d, Cycle) {
        source.notifyRetire(d);
        return true;
    };
    constexpr Cycle kStallLimit = 1'000'000;
    Cycle now = 0;
    Cycle lastProgress = 0;
    {
        Span run(tr, SpanName::UarchRun);
        while (!c.halted()) {
            {
                Span tick(tr, SpanName::CoreTick);
                c.tick(now);
            }
            lastProgress = std::max(lastProgress, c.lastRetireCycle());
            if (now - lastProgress > kStallLimit)
                throw std::runtime_error(label + " " + p.name +
                                         ": traced SS run stopped retiring");
            ++now;
        }
    }
    RunMetrics m;
    m.model = label;
    m.cycles = now;
    m.retired = c.retiredCount();
    m.ipc = now ? double(m.retired) / double(now) : 0.0;
    m.branchMispPer1000 =
        m.retired ? 1000.0 * double(c.branchMispredicts()) / double(m.retired)
                  : 0.0;
    m.outputCorrect = source.output() == p.golden;
    m.outputBytes = source.output().size();
    return m;
}

/** Slipstream counters summed over traced runs. */
struct SlipCounts
{
    uint64_t aRetired = 0;
    uint64_t rRetired = 0;
    uint64_t aWasted = 0;
    uint64_t recoveries = 0;
    uint64_t packets = 0;
    uint64_t flushes = 0;
    uint64_t irRemoved = 0; // over `ir`-policy runs only
    uint64_t irRetired = 0;

    void
    merge(const SlipCounts &o)
    {
        aRetired += o.aRetired;
        rRetired += o.rRetired;
        aWasted += o.aWasted;
        recoveries += o.recoveries;
        packets += o.packets;
        flushes += o.flushes;
        irRemoved += o.irRemoved;
        irRetired += o.irRetired;
    }
};

/**
 * runSlipstream() rebuilt around a SlipstreamProcessor whose public
 * hooks are wrapped in spans before run(): A and R retirement, trace
 * retirement (trace-predictor training + IR-detector/ORT), trace
 * verification and recovery. Results must equal runSlipstream's.
 */
RunMetrics
tracedSlipstream(const slip::Program &program,
                 const slip::SlipstreamParams &params,
                 const std::string &golden,
                 const std::vector<slip::FaultPlan> &faults,
                 Cycle maxCycles, Tracer *tr, SlipCounts &counts)
{
    slip::SlipstreamProcessor proc(program, params);
    if (!faults.empty())
        proc.faultInjector().arm(faults);
    const std::unique_ptr<slip::DetectionBackend> backend =
        slip::makeDetectionBackend(params.detect, program,
                                   proc.faultInjector());
    proc.onArchRetire = [&](const DynInst &d, Cycle now) {
        backend->onRetire(d, now);
    };
    // The processor calls this hook after its recovery work, so the
    // span covers only the backend's share; the rest is run_s self time.
    proc.onRecoveryEvent = [&](Cycle now) {
        Span span(tr, SpanName::Recovery);
        backend->onSuspicion(now);
    };

    auto aRetire = proc.aCore().onRetire;
    proc.aCore().onRetire = [tr, aRetire](const DynInst &d, Cycle c) {
        Span span(tr, SpanName::ARetire);
        return aRetire(d, c);
    };
    const auto spanRRetire = [&proc, tr] {
        auto rRetire = proc.rCore().onRetire;
        proc.rCore().onRetire = [tr, rRetire](const DynInst &d, Cycle c) {
            Span span(tr, SpanName::RRetire);
            return rRetire(d, c);
        };
    };
    spanRRetire();
    // Degradation installs a new R retirement hook; wrap it as well.
    proc.onDegradeEvent = [&](Cycle now) {
        spanRRetire();
        backend->onDegrade(proc.archState(), proc.rMemory(), now);
    };
    auto packetRetired = proc.rSource().onPacketRetired;
    proc.rSource().onPacketRetired =
        [tr, packetRetired](const slip::Packet &packet,
                            const std::vector<slip::ExecResult> &exec) {
            Span span(tr, SpanName::TraceRetire);
            packetRetired(packet, exec);
        };
    auto verified = proc.detector().onTraceVerified;
    proc.detector().onTraceVerified = [tr, verified](uint64_t packetNum) {
        Span span(tr, SpanName::TraceVerified);
        verified(packetNum);
    };

    slip::SlipstreamRunResult r;
    {
        Span span(tr, SpanName::SlipRun);
        r = proc.run(maxCycles);
    }
    backend->finish(r.cycles);

    RunMetrics m;
    m.model = "CMP(2x64x4)";
    m.cycles = r.cycles;
    m.retired = r.rRetired;
    m.ipc = r.ipc();
    m.branchMispPer1000 = r.mispPer1000();
    m.outputCorrect = r.halted && r.output == golden;
    m.outputBytes = r.output.size();
    m.removedFraction = r.removedFraction();
    m.removedByReasonMask = r.removedByReasonMask;
    m.recoveries = r.irMispredicts;
    m.hung = r.hung;
    m.watchdogTrips = r.watchdogTrips;
    m.degraded = r.degraded;
    m.degradedAtCycle = r.degradedAtCycle;
    m.rOnlyRetired = r.rOnlyRetired;
    m.detectBackend = slip::detectBackendName(params.detect.kind);
    m.detectChecked = backend->stats().checked;
    m.detectMismatches = backend->stats().mismatches;
    m.detectExternal = backend->stats().externalDetections;
    m.detectReplays = backend->stats().replays;
    m.detectReplayedInsts = backend->stats().replayedInsts;
    m.detectOverheadCycles = backend->stats().overheadCycles;
    // Re-read after finish(), which may mark late detections.
    m.faultOutcome = proc.faultInjector().outcome();

    // A-stream work the R-stream never consumed: retired A
    // instructions beyond the R slots they fed (slipstream mode only).
    const uint64_t fed = r.rRetired - r.rOnlyRetired - r.removedSlots;
    counts.aRetired += r.aRetired;
    counts.rRetired += r.rRetired;
    counts.aWasted += r.aRetired > fed ? r.aRetired - fed : 0;
    counts.recoveries += r.irMispredicts;
    counts.packets += proc.delayBuffer().stats().get("packets");
    counts.flushes += proc.delayBuffer().stats().get("flushes");
    if (params.aPolicy.kind == slip::AStreamPolicyKind::IRRemoval) {
        counts.irRemoved += r.removedSlots;
        counts.irRetired += r.rRetired;
    }
    return m;
}

RunMetrics
runTraced(const SimJob &j, Tracer *tr, SlipCounts &counts)
{
    const BenchProgram &p = *j.prog;
    switch (j.model) {
      case Model::SS64x4:
        return tracedSS(p, slip::ss64x4Params(), j.label(), tr);
      case Model::SS128x8:
        return tracedSS(p, slip::ss128x8Params(), j.label(), tr);
      case Model::CMP:
        break;
    }
    return tracedSlipstream(p.program, cmpParams(j.policy), p.golden, {}, 0,
                            tr, counts);
}

void
uarchLayerValues(const Tracer &tr, uint64_t ssCycles, Report &r)
{
    r.values["uarch.core_tick_s"] = tr.selfS(SpanName::CoreTick);
    r.values["uarch.fetch_s"] = tr.totalS(SpanName::Fetch);
    if (ssCycles)
        r.values["uarch.ns_per_cycle"] =
            double(tr.total(SpanName::UarchRun).totalNs) / double(ssCycles);
}

void
slipLayerValues(const Tracer &tr, const SlipCounts &c, Report &r)
{
    r.values["slipstream.run_s"] = tr.totalS(SpanName::SlipRun);
    r.values["slipstream.cores_and_walks_s"] = tr.selfS(SpanName::SlipRun);
    r.values["slipstream.trace_retire_s"] = tr.totalS(SpanName::TraceRetire);
    const uint64_t traces = tr.total(SpanName::TraceRetire).count;
    if (traces)
        r.values["slipstream.trace_retire_us_per_trace"] =
            tr.totalS(SpanName::TraceRetire) * 1e6 / double(traces);
    r.values["slipstream.r_retire_s"] = tr.selfS(SpanName::RRetire);
    r.values["slipstream.a_retire_s"] = tr.totalS(SpanName::ARetire);
    if (c.irRetired)
        r.values["slipstream.removed_frac"] =
            double(c.irRemoved) / double(c.irRetired);
    if (c.aRetired)
        r.values["slipstream.a_wasted_frac"] =
            double(c.aWasted) / double(c.aRetired);
    if (c.rRetired)
        r.values["slipstream.recoveries_per_kinst"] =
            1000.0 * double(c.recoveries) / double(c.rRetired);
    r.values["slipstream.delay_buffer_packets"] = double(c.packets);
    r.values["slipstream.delay_buffer_flushes"] = double(c.flushes);

    // How run_s splits into its self time and its direct children.
    const Tracer::Total &run = tr.total(SpanName::SlipRun);
    if (run.count == 0)
        return;
    std::string parts;
    for (size_t i = 0; i < kNumSpanNames; ++i)
        if (const int64_t ns = tr.childNs(SpanName::SlipRun, SpanName(i)))
            parts += std::string(" + ") + spanNameText(SpanName(i)) + " " +
                     std::to_string(ns);
    r.notes.push_back("span split: slipstream.run " +
                      std::to_string(run.totalNs) + " ns = self " +
                      std::to_string(run.selfNs) + parts);
}

/** Every simulated statistic of one fault-free job, as one line. */
std::string
jobDigest(const SimJob &j, const RunMetrics &m)
{
    std::ostringstream out;
    out << j.prog->name << " " << j.label() << " cycles=" << m.cycles
        << " retired=" << m.retired
        << " bmisp_per_kinst=" << formatNumber(m.branchMispPer1000)
        << " out_bytes=" << m.outputBytes;
    if (j.model == Model::CMP) {
        out << " removed_by_reason=";
        for (size_t i = 0; i < m.removedByReasonMask.size(); ++i)
            out << (i ? "," : "") << m.removedByReasonMask[i];
        out << " recoveries=" << m.recoveries
            << " watchdog=" << m.watchdogTrips
            << " degraded=" << m.degraded;
    }
    return out.str();
}

/** Does a traced job reproduce its untraced twin exactly? */
bool
sameSimulation(const RunMetrics &a, const RunMetrics &b)
{
    return a.cycles == b.cycles && a.retired == b.retired &&
           a.removedByReasonMask == b.removedByReasonMask &&
           a.recoveries == b.recoveries;
}

// ---------------------------------------------------------------------
// paper-cmp and ss-scaling: one fault-free simulation per job
// ---------------------------------------------------------------------

struct SimSweep
{
    WorkloadSize size;
    // Generated programs stay shorter than every paper program, so
    // their jobs sit below the latency percentiles for any seed. Their
    // count then fixes which paper job is the median and the tail; it
    // is chosen so both fall inside a run of jobs of similar length
    // rather than next to a gap that host noise would make them jump.
    unsigned generated;
    uint64_t generatedInsts;
    std::vector<Model> models;
    bool allPolicies; // CMP under every A-stream policy
    size_t samples;   // job samples every run collects at least

};

/**
 * The paper programs plus the sweep's seeded ones, each run on every
 * model of the sweep one job at a time.
 */
Report
runSimSweep(const Options &o, const SimSweep &sweep)
{
    Report r;
    Tracer setupTr;
    const std::vector<BenchProgram> progs =
        repeatedSetup(r, o.trace ? &setupTr : nullptr, [&](Tracer *tr) {
            return buildPrograms(sweep.size, o.seed, sweep.generated,
                                 sweep.generatedInsts, tr);
        });
    setupLayerValues(setupTr, goldenInsts(progs), r);

    // One grid per model (and policy), as fig6/fig7 sweep: a program's
    // jobs then run seconds apart, so a short slow spell of the host
    // moves only some of the jobs that sit near a latency percentile.
    std::vector<SimJob> jobs;
    for (const Model model : sweep.models) {
        const unsigned policies =
            model == Model::CMP && sweep.allPolicies
                ? slip::kNumAStreamPolicies
                : 1;
        for (unsigned k = 0; k < policies; ++k)
            for (const BenchProgram &p : progs)
                jobs.push_back({&p, model, slip::AStreamPolicyKind(k)});
    }

    std::vector<std::vector<RunMetrics>> passes;
    const unsigned minPasses = passesFor(o, jobs.size(), sweep.samples, r);
    CpuRotation rotation;
    r.passS = timedPasses(untracedBudget(o), minPasses, [&] {
        std::vector<RunMetrics> &out = passes.emplace_back();
        double insts = 0;
        for (const SimJob &j : jobs) {
            // Each pass starts one CPU further, so a job's samples come
            // from different CPUs.
            rotation.select(out.size() + passes.size());
            const double t0 = nowS();
            out.push_back(runUntraced(j));
            r.jobMs.push_back((nowS() - t0) * 1e3);
            insts += double(out.back().retired);
        }
        r.passInsts.push_back(insts);
    }, &r.peakRssMb);

    // Verification, outside every timed region.
    const std::vector<RunMetrics> &first = passes.front();
    for (const std::vector<RunMetrics> &pass : passes)
        for (size_t i = 0; i < jobs.size(); ++i) {
            const RunMetrics &m = pass[i];
            ++r.attempted;
            const std::string what = jobs[i].prog->name + " " + jobs[i].label();
            if (!m.outputCorrect)
                r.fail(what + ": program output differs from the golden output");
            else if (m.hung || m.cancelled)
                r.fail(what + ": fault-free run did not complete");
            else if (jobDigest(jobs[i], m) != jobDigest(jobs[i], first[i]))
                r.fail(what + ": simulated statistics differ between passes");
        }
    for (size_t i = 0; i < jobs.size(); ++i)
        r.digest.push_back(jobDigest(jobs[i], first[i]));

    if (o.trace) {
        Tracer tr;
        SlipCounts counts;
        uint64_t ssCycles = 0;
        r.tracedPassS = timedPasses(o.seconds / 2, 1, [&] {
            for (size_t i = 0; i < jobs.size(); ++i) {
                rotation.select(i + r.tracedPassS.size());
                tr.setJob(i);
                Span job(&tr, SpanName::Job, true);
                const RunMetrics m = runTraced(jobs[i], &tr, counts);
                ++r.attempted;
                if (jobs[i].model != Model::CMP)
                    ssCycles += m.cycles;
                if (!m.outputCorrect || !sameSimulation(m, first[i]))
                    r.fail(jobs[i].prog->name + " " + jobs[i].label() +
                           ": traced run differs from the untraced run");
            }
        });
        uarchLayerValues(tr, ssCycles, r);
        slipLayerValues(tr, counts, r);
        noteSpans(setupTr, r);
        noteSpans(tr, r);
        setTraceWall(r, median(r.passS), median(r.tracedPassS));
    }

    // Modelled results of the first pass.
    if (sweep.allPolicies) {
        double gainSum = 0.0;
        unsigned paperPrograms = 0;
        std::map<const BenchProgram *, double> ssIpc;
        for (size_t i = 0; i < jobs.size(); ++i)
            if (jobs[i].model == Model::SS64x4)
                ssIpc[jobs[i].prog] = first[i].ipc;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const SimJob &j = jobs[i];
            if (j.model != Model::CMP ||
                j.policy != slip::AStreamPolicyKind::IRRemoval)
                continue;
            const double gain = 100.0 * (first[i].ipc / ssIpc[j.prog] - 1.0);
            std::ostringstream note;
            note << "cmp_ipc_gain " << j.prog->name << " "
                 << formatNumber(gain) << " % (ir policy, removed "
                 << formatNumber(100.0 * first[i].removedFraction) << " %"
                 << (j.prog->paper ? "" : ", generated held-out program")
                 << ")";
            r.notes.push_back(note.str());
            if (j.prog->paper) {
                gainSum += gain;
                ++paperPrograms;
            }
        }
        r.values["cmp_ipc_gain_pct"] = gainSum / paperPrograms;
        r.notes.push_back(
            "paper Figure 6 shape, a reference only: average about +7 %, "
            "m88ksim about +20 %, compress/go/jpeg about 0 %");
    }
    return r;
}

// ---------------------------------------------------------------------
// In-process reference pipeline: plan -> run -> record -> line
// ---------------------------------------------------------------------

/** Run `work(i)` for i in [0, n) on `threads` threads. */
void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t, unsigned)> &work)
{
    std::atomic<size_t> next{0};
    std::mutex errorMu;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        pool.emplace_back([&, t] {
            for (size_t i; (i = next.fetch_add(1)) < n;) {
                try {
                    work(i, t);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errorMu);
                    if (!error)
                        error = std::current_exception();
                }
            }
        });
    for (std::thread &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

struct RefTrial
{
    std::string line;
    RunMetrics metrics;
    double runMs = 0.0;
};

/** One campaign's in-process result: lines in trial order. */
struct RefCampaign
{
    std::vector<RefTrial> trials;

    std::string
    journal() const
    {
        std::string out;
        for (const RefTrial &t : trials)
            out += t.line + "\n";
        return out;
    }
};

/**
 * The in-process pipeline for each config, trials spread over
 * `threads` threads. Spans (plan, trial run, record) go to one tracer
 * per thread, merged into `tr`.
 */
std::vector<RefCampaign>
referencePipeline(const std::vector<FaultCampaignConfig> &cfgs,
                  unsigned threads, Tracer *tr)
{
    std::vector<std::vector<slip::CampaignTrialSpec>> specs;
    std::vector<std::pair<size_t, size_t>> items;
    std::vector<RefCampaign> out(cfgs.size());
    for (size_t c = 0; c < cfgs.size(); ++c) {
        Span span(tr, SpanName::Plan);
        specs.push_back(slip::planCampaignTrials(cfgs[c]));
        out[c].trials.resize(specs[c].size());
        for (size_t i = 0; i < specs[c].size(); ++i)
            items.push_back({c, i});
    }
    std::vector<Tracer> tracers(std::max(1u, threads));
    parallelFor(items.size(), threads, [&](size_t k, unsigned t) {
        const auto [c, i] = items[k];
        Tracer *ttr = tr ? &tracers[t] : nullptr;
        if (ttr)
            ttr->setJob(k);
        Span job(ttr, SpanName::Job);
        slip::JobOutcome o;
        const double t0 = nowS();
        {
            Span span(ttr, SpanName::TrialRun, true);
            slip::CancelToken cancel;
            try {
                o.metrics = slip::runCampaignTrial(cfgs[c], specs[c][i], i,
                                                   cancel);
            } catch (const std::exception &e) {
                o.status = slip::JobOutcome::Status::Error;
                o.errorMessage = e.what();
            }
        }
        RefTrial &ref = out[c].trials[i];
        ref.runMs = (nowS() - t0) * 1e3;
        Span span(ttr, SpanName::Record, true);
        const slip::TrialRecord rec =
            slip::recordCampaignTrial(cfgs[c], specs[c][i], i, o);
        ref.line = slip::campaignTrialLine(cfgs[c], i, rec);
        ref.metrics = o.metrics;
    });
    if (tr)
        for (const Tracer &t : tracers)
            tr->merge(t);
    return out;
}

/** Median duration of the kept spans called `name`, in ms. */
double
keptSpanMedianMs(const Tracer &tr, SpanName name)
{
    std::vector<double> ms;
    for (const Tracer::Record &rec : tr.records())
        if (rec.name == name)
            ms.push_back(double(rec.endNs - rec.startNs) * 1e-6);
    return median(ms);
}

/** Count the lines of `got` that differ from `want`. */
uint64_t
differingLines(const std::string &got, const std::string &want)
{
    auto split = [](const std::string &s) {
        std::vector<std::string> lines;
        std::istringstream in(s);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        return lines;
    };
    const std::vector<std::string> a = split(got);
    const std::vector<std::string> b = split(want);
    uint64_t diff = 0;
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i)
        if (i >= a.size() || i >= b.size() || a[i] != b[i])
            ++diff;
    return diff;
}

void
makeFreshDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
}

// ---------------------------------------------------------------------
// fault-campaign: one seeded campaign under each detection backend
// ---------------------------------------------------------------------

constexpr DetectBackendKind kBackends[] = {DetectBackendKind::Slipstream,
                                           DetectBackendKind::Replay,
                                           DetectBackendKind::Checker};

/**
 * Trial start times, written inside the fork worker into memory shared
 * with the supervisor, which sees each trial's completion: a trial's
 * latency runs from its start in the worker to its result arriving.
 */
class TrialStarts
{
  public:
    explicit TrialStarts(size_t n) : n_(std::max<size_t>(n, 1))
    {
        void *p = mmap(nullptr, n_ * sizeof(int64_t), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::runtime_error("mmap of trial start times failed");
        ns_ = static_cast<int64_t *>(p);
    }

    ~TrialStarts() { munmap(ns_, n_ * sizeof(int64_t)); }

    TrialStarts(const TrialStarts &) = delete;
    TrialStarts &operator=(const TrialStarts &) = delete;

    int64_t *data() { return ns_; }

  private:
    size_t n_;
    int64_t *ns_ = nullptr;
};

/** One campaign run under fork isolation, as the server runs trials. */
struct ForkCampaign
{
    std::vector<slip::TrialRecord> trials;
    std::string journal; // campaign lines in trial order
    double wallS = 0.0;  // first trial submitted to last result
};

/**
 * Run every planned trial on `workers` fork-isolated workers through
 * SimJobRunner and the campaign stages (runCampaignTrial in the
 * worker, recordCampaignTrial + campaignTrialLine in the supervisor,
 * lines committed in trial order as runFaultCampaign journals them).
 */
ForkCampaign
runForkCampaign(const FaultCampaignConfig &cfg,
                const std::vector<slip::CampaignTrialSpec> &specs,
                unsigned workers, TrialStarts &starts,
                std::vector<double> &latencyMs)
{
    slip::SimJobRunner runner(workers, slip::Supervision{});
    runner.setIsolation(slip::IsolationMode::Fork);
    int64_t *startNs = starts.data();
    for (size_t i = 0; i < specs.size(); ++i)
        runner.add([&cfg, &specs, i, startNs](const slip::CancelToken &c) {
            startNs[i] = nowNs();
            return slip::runCampaignTrial(cfg, specs[i], i, c);
        });
    ForkCampaign out;
    std::vector<std::optional<slip::TrialRecord>> done(specs.size());
    size_t next = 0;
    const double t0 = nowS();
    runner.runSupervised([&](size_t i, const slip::JobOutcome &o) {
        latencyMs.push_back(double(nowNs() - startNs[i]) * 1e-6);
        done[i] = slip::recordCampaignTrial(cfg, specs[i], i, o);
        for (; next < done.size() && done[next]; ++next)
            out.journal += slip::campaignTrialLine(cfg, next, *done[next]) + "\n";
    });
    out.wallS = nowS() - t0;
    for (std::optional<slip::TrialRecord> &t : done)
        out.trials.push_back(std::move(*t));
    return out;
}

/**
 * One backend's campaign of one pass. Every pass draws its own fault
 * plans (seed, pass), so a rare slow trial (a fault that livelocks the
 * run until its cycle cap) moves one pass, not the median.
 */
FaultCampaignConfig
faultConfig(const Options &o, DetectBackendKind backend, size_t pass)
{
    FaultCampaignConfig cfg;
    cfg.name = "slipbench_fault";
    cfg.size = WorkloadSize::Test;
    cfg.trialsPerWorkload = o.smoke ? 1 : 3;
    cfg.seed = mixSeed(mixSeed(o.seed) + pass);
    cfg.params.detect = {};
    cfg.params.detect.kind = backend;
    cfg.params.aPolicy = {};
    return cfg;
}

std::vector<FaultCampaignConfig>
faultConfigs(const Options &o, size_t pass)
{
    std::vector<FaultCampaignConfig> cfgs;
    for (const DetectBackendKind b : kBackends)
        cfgs.push_back(faultConfig(o, b, pass));
    return cfgs;
}

Report
runFaultCampaignWorkload(const Options &o)
{
    Report r;
    constexpr size_t kNumBackends = std::size(kBackends);
    const unsigned threads = workerCount();
    r.notes.push_back("fork workers: " + std::to_string(threads));
    Tracer setupTr;
    uint64_t insts = 0;
    const size_t trialsPerCampaign =
        repeatedSetup(r, o.trace ? &setupTr : nullptr, [&](Tracer *tr) {
            const std::vector<BenchProgram> progs =
                buildPrograms(WorkloadSize::Test, o.seed, 0, 0, tr);
            insts = goldenInsts(progs);
            for (const BenchProgram &p : progs)
                slip::ProgramCache::global().get(p.name, WorkloadSize::Test);
            size_t trials = 0;
            for (const FaultCampaignConfig &cfg : faultConfigs(o, 0)) {
                Span span(tr, SpanName::Plan);
                trials = slip::planCampaignTrials(cfg).size();
            }
            return trials;
        });
    setupLayerValues(setupTr, insts, r);
    if (o.trace)
        r.values["harness.plan_ms"] = setupTr.totalS(SpanName::Plan) * 1e3 /
                                      kSetupReps / kNumBackends;

    // Timed passes: every backend's campaign under fork isolation.
    std::vector<FaultCampaignConfig> cfgs; // [pass * backends + b]
    std::vector<ForkCampaign> runs;
    TrialStarts starts(trialsPerCampaign);
    const unsigned minPasses =
        passesFor(o, trialsPerCampaign * kNumBackends, 200, r);
    timedPasses(untracedBudget(o), minPasses, [&] {
        const size_t pass = cfgs.size() / kNumBackends;
        double wall = 0.0, simulated = 0.0;
        for (const FaultCampaignConfig &cfg : faultConfigs(o, pass)) {
            cfgs.push_back(cfg);
            const std::vector<slip::CampaignTrialSpec> specs =
                slip::planCampaignTrials(cfg);
            runs.push_back(
                runForkCampaign(cfg, specs, threads, starts, r.jobMs));
            wall += runs.back().wallS;
            for (const slip::TrialRecord &t : runs.back().trials)
                simulated += double(t.metrics.retired);
        }
        r.passS.push_back(wall);
        r.passInsts.push_back(simulated);
    }, &r.peakRssMb);

    // Verification: the in-process pipeline for every campaign run,
    // then byte comparison of the journals.
    Tracer refTr;
    const std::vector<RefCampaign> ref =
        referencePipeline(cfgs, threads, o.trace ? &refTr : nullptr);
    uint64_t journalBytes = 0;
    std::vector<slip::CampaignTally> tallies(runs.size());
    for (size_t k = 0; k < runs.size(); ++k) {
        const char *name = slip::detectBackendName(cfgs[k].params.detect.kind);
        for (const slip::TrialRecord &t : runs[k].trials) {
            tallies[k].add(t);
            ++r.attempted;
            if (t.outcome == slip::TrialOutcome::Crashed ||
                t.outcome == slip::TrialOutcome::TimedOut)
                r.fail(std::string(name) + " trial " + t.workload + " " +
                       slip::trialOutcomeName(t.outcome));
        }
        const uint64_t diff = differingLines(runs[k].journal, ref[k].journal());
        for (uint64_t d = 0; d < diff; ++d)
            r.fail(std::string(name) + " journal of pass " +
                   std::to_string(k / kNumBackends) +
                   " differs from the in-process pipeline");
        journalBytes += runs[k].journal.size();
    }

    // Modelled results and the digest, from the first pass.
    uint64_t injected = 0, detected = 0, silent = 0, trials = 0;
    for (size_t b = 0; b < kNumBackends; ++b) {
        const slip::CampaignTally &t = tallies[b];
        const char *name = slip::detectBackendName(kBackends[b]);
        injected += t.faultsInjected;
        detected += t.faultsDetected;
        silent += t.outcomes(slip::TrialOutcome::SilentCorrupt);
        trials += t.trials;
        std::ostringstream line;
        line << "campaign " << name << " trials=" << t.trials
             << " planned=" << t.faultsPlanned
             << " injected=" << t.faultsInjected
             << " detected=" << t.faultsDetected
             << " degraded=" << t.degradedRuns << " cycles=" << t.cyclesTotal
             << " checked=" << t.detectChecked
             << " overhead=" << t.detectOverhead << " outcomes=";
        for (unsigned k = 0; k < slip::kNumTrialOutcomes; ++k)
            line << (k ? "," : "") << t.byOutcome[k];
        line << " journal_bytes=" << runs[b].journal.size()
             << " journal_fnv=" << std::hex << fnv1a(runs[b].journal);
        r.digest.push_back(line.str());
        std::ostringstream note;
        note << "backend " << name << ": coverage "
             << formatNumber(t.faultsInjected
                                 ? 100.0 * double(t.faultsDetected) /
                                       double(t.faultsInjected)
                                 : 0.0)
             << " %, silent-corrupt trials "
             << t.outcomes(slip::TrialOutcome::SilentCorrupt) << " of "
             << t.trials << " (first pass)";
        r.notes.push_back(note.str());
    }
    if (injected)
        r.values["fault_coverage_pct"] =
            100.0 * double(detected) / double(injected);
    if (trials)
        r.values["silent_corrupt_pct"] = 100.0 * double(silent) / double(trials);

    if (!o.trace)
        return r;

    r.values["harness.trial_run_ms_p50"] =
        keptSpanMedianMs(refTr, SpanName::TrialRun);
    r.values["harness.record_us_p50"] =
        keptSpanMedianMs(refTr, SpanName::Record) * 1e3;
    r.values["harness.journal_bytes"] = double(journalBytes) / r.passS.size();
    double inProcessMs = 0.0;
    uint64_t replayed = 0, checked = 0;
    std::vector<std::vector<double>> backendMs(kNumBackends);
    for (size_t k = 0; k < cfgs.size(); ++k)
        for (const RefTrial &t : ref[k].trials) {
            backendMs[k % kNumBackends].push_back(t.runMs);
            inProcessMs += t.runMs;
            if (kBackends[k % kNumBackends] == DetectBackendKind::Replay) {
                replayed += t.metrics.detectReplayedInsts;
                checked += t.metrics.detectChecked;
            }
        }
    for (size_t b = 0; b < kNumBackends; ++b)
        r.values[std::string("detect.") + slip::detectBackendName(kBackends[b]) +
                 ".trial_ms_p50"] = median(backendMs[b]);
    if (checked)
        r.values["detect.replayed_frac"] = double(replayed) / double(checked);
    double forkMs = 0.0;
    for (const double s : r.passS)
        forkMs += s * 1e3 * threads;
    r.values["harness.isolation_overhead_frac"] =
        (forkMs - inProcessMs) / forkMs;

    // Traced in-process replicas of the first pass's trials. Tracing
    // overhead compares their summed trial time with the pipeline's.
    std::vector<std::vector<slip::CampaignTrialSpec>> specs;
    std::vector<std::pair<size_t, size_t>> items;
    double untracedS = 0.0;
    for (size_t b = 0; b < kNumBackends; ++b) {
        specs.push_back(slip::planCampaignTrials(cfgs[b]));
        for (size_t i = 0; i < specs[b].size(); ++i) {
            items.push_back({b, i});
            untracedS += ref[b].trials[i].runMs * 1e-3;
        }
    }
    std::vector<Tracer> tracers(threads);
    std::vector<SlipCounts> counts(threads);
    std::mutex mismatchMu;
    std::vector<std::string> mismatches;
    parallelFor(items.size(), threads, [&](size_t k, unsigned t) {
        const auto [b, i] = items[k];
        const slip::CampaignTrialSpec &spec = specs[b][i];
        const auto *entry =
            static_cast<const slip::ProgramCache::Entry *>(spec.entry);
        tracers[t].setJob(k);
        Span job(&tracers[t], SpanName::Job, true);
        const RunMetrics m = tracedSlipstream(
            entry->program, cfgs[b].params, entry->golden, spec.plans,
            spec.maxCycles, &tracers[t], counts[t]);
        const RunMetrics &want = ref[b].trials[i].metrics;
        if (!sameSimulation(m, want) ||
            slip::classifyTrial(m) != slip::classifyTrial(want)) {
            std::lock_guard<std::mutex> lock(mismatchMu);
            mismatches.push_back(
                std::string(slip::detectBackendName(kBackends[b])) +
                " trial " + std::to_string(i) + " (" + spec.workload +
                "): traced replica gives cycles " + std::to_string(m.cycles) +
                ", " + slip::trialOutcomeName(slip::classifyTrial(m)) +
                "; the pipeline gives " + std::to_string(want.cycles) + ", " +
                slip::trialOutcomeName(slip::classifyTrial(want)));
        }
    });
    r.attempted += items.size();
    for (const std::string &why : mismatches)
        r.fail(why);
    Tracer tr;
    SlipCounts all;
    for (unsigned t = 0; t < threads; ++t) {
        tr.merge(tracers[t]);
        all.merge(counts[t]);
    }
    slipLayerValues(tr, all, r);
    noteSpans(setupTr, r);
    noteSpans(refTr, r);
    noteSpans(tr, r);
    r.tracedPassS.push_back(tr.totalS(SpanName::Job));
    setTraceWall(r, untracedS, r.tracedPassS.back());
    return r;
}

// ---------------------------------------------------------------------
// serve-mixed: closed-loop clients against an in-process slipd
// ---------------------------------------------------------------------

struct Submission
{
    size_t batch;  // index into the distinct batches
    bool repeat;   // repeats a batch this client already completed
};

struct ServePlan
{
    std::vector<slip::serve::BatchRequest> batches;   // distinct
    std::vector<std::vector<Submission>> perClient;   // closed-loop order
};

/**
 * Each client alternates a new small campaign batch with a repeat of
 * one it already completed, so half of the batches (and their hits)
 * are fixed. The workload mix is fixed and balanced over the clients;
 * the seed and the pass index draw the fault seeds and which batch a
 * repeat picks. New batches never repeat across clients or passes.
 */
ServePlan
planServe(const Options &o, size_t pass)
{
    static const char *kNames[] = {"compress", "gcc",  "go",     "jpeg",
                                   "li",       "m88ksim", "perl", "vortex"};
    const unsigned perClient = o.smoke ? 2 : 16;
    ServePlan plan;
    plan.perClient.resize(workerCount());
    for (unsigned c = 0; c < plan.perClient.size(); ++c) {
        slip::Rng rng(mixSeed(mixSeed(o.seed) + pass), c);
        std::vector<size_t> mine;
        for (unsigned k = 0; k < perClient; ++k) {
            if (k % 2 == 1) {
                plan.perClient[c].push_back(
                    {mine[rng.below(mine.size())], true});
                continue;
            }
            slip::serve::BatchRequest req;
            req.kind = slip::serve::BatchKind::Campaign;
            req.name = "slipbench_serve";
            req.workloads = {kNames[(c * perClient / 2 + k / 2) % 8]};
            req.size = WorkloadSize::Test;
            req.trialsPerWorkload = 1;
            req.minFaultsPerTrial = 1;
            req.maxFaultsPerTrial = 2;
            req.seed = rng.next();
            mine.push_back(plan.batches.size());
            plan.perClient[c].push_back({plan.batches.size(), false});
            plan.batches.push_back(req);
        }
    }
    return plan;
}

slip::serve::ServerOptions
serverOptions(const std::string &dir)
{
    slip::serve::ServerOptions opts;
    opts.unixPath = dir + "/slipd.sock";
    opts.cacheDir = dir + "/cache";
    opts.workers = 1; // one simulation per batch: clients <= cores
    opts.isolation = slip::IsolationMode::None;
    opts.name = "slipbench";
    return opts;
}

struct Served
{
    double ms = 0.0;
    bool ok = false;
    std::string error;
    uint64_t completed = 0;
    uint64_t hits = 0;
    std::string journal; // sorted by trial index
};

struct ServePass
{
    std::vector<std::vector<Served>> perClient;
    std::vector<double> handshakeMs;
    slip::serve::ServeStats stats;
};

/** One pass: a fresh server and cache, every client's sequence. */
ServePass
runServePass(const Options &o, const ServePlan &plan, size_t pass,
             Tracer *tr, double &wallS)
{
    const std::string dir =
        o.tmpDir + "/serve-p" + std::to_string(pass);
    makeFreshDir(dir);
    slip::serve::Server server(serverOptions(dir));
    std::string err;
    if (!server.start(err))
        throw std::runtime_error("slipd start failed: " + err);

    const unsigned n = plan.perClient.size();
    ServePass out;
    out.perClient.resize(n);
    out.handshakeMs.resize(n);
    std::vector<Tracer> tracers(n);
    std::vector<double> firstSubmit(n, 0.0), lastResult(n, 0.0);
    std::latch ready(n);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < n; ++c)
        clients.emplace_back([&, c] {
            Tracer *ctr = tr ? &tracers[c] : nullptr;
            std::vector<Served> &served = out.perClient[c];
            slip::serve::Client client;
            std::string cerr;
            bool connected = false;
            try {
                const double t0 = nowS();
                Span span(ctr, SpanName::Handshake, true);
                connected = client.connect(dir + "/slipd.sock", cerr) &&
                            client.handshake("slipbench", cerr);
                out.handshakeMs[c] = (nowS() - t0) * 1e3;
            } catch (const std::exception &e) {
                cerr = e.what();
            }
            ready.arrive_and_wait();
            firstSubmit[c] = nowS();
            try {
                for (size_t k = 0; connected && k < plan.perClient[c].size();
                     ++k) {
                    Served &s = served.emplace_back();
                    slip::serve::BatchRequest req =
                        plan.batches[plan.perClient[c][k].batch];
                    req.id = (uint64_t(pass) << 32) | (uint64_t(c) << 16) | k;
                    std::map<uint64_t, std::string> lines;
                    slip::serve::BatchDoneMsg done;
                    if (ctr)
                        ctr->setJob(req.id);
                    const double t0 = nowS();
                    bool finished;
                    {
                        Span span(ctr, SpanName::Batch, true);
                        finished = client.submitBatch(
                            req,
                            [&](const slip::serve::TrialResultMsg &m) {
                                lines[m.index] = m.line;
                                return true;
                            },
                            done, cerr);
                    }
                    s.ms = (nowS() - t0) * 1e3;
                    s.ok = finished &&
                           done.status == slip::serve::BatchStatus::Ok;
                    s.error = finished ? done.error : cerr;
                    s.completed = done.completed;
                    s.hits = done.cacheHits;
                    for (const auto &[index, line] : lines)
                        s.journal += line + "\n";
                }
            } catch (const std::exception &e) {
                cerr = e.what();
                if (!served.empty()) {
                    served.back().ok = false;
                    served.back().error = cerr;
                }
            }
            // Submissions never made count as failed ones.
            while (served.size() < plan.perClient[c].size())
                served.emplace_back().error = cerr;
            lastResult[c] = nowS();
        });
    for (std::thread &t : clients)
        t.join();
    wallS = *std::max_element(lastResult.begin(), lastResult.end()) -
            *std::min_element(firstSubmit.begin(), firstSubmit.end());

    server.beginDrain();
    server.waitIdle();
    out.stats = server.statsSnapshot();
    server.stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (tr)
        for (const Tracer &t : tracers)
            tr->merge(t);
    return out;
}

Report
runServeMixed(const Options &o)
{
    Report r;
    r.notes.push_back("clients: " + std::to_string(workerCount()));
    Tracer setupTr;
    uint64_t insts = 0;
    // Set-up ends with a started server; stopping it is not set-up.
    struct SetupState
    {
        ServePlan plan;
        std::unique_ptr<slip::serve::Server> server;
    };
    SetupState setup =
        repeatedSetup(r, o.trace ? &setupTr : nullptr, [&](Tracer *tr) {
            const std::vector<BenchProgram> progs =
                buildPrograms(WorkloadSize::Test, o.seed, 0, 0, tr);
            insts = goldenInsts(progs);
            for (const BenchProgram &p : progs)
                slip::ProgramCache::global().get(p.name, WorkloadSize::Test);
            SetupState state{planServe(o, 0), nullptr};
            const std::string dir = o.tmpDir + "/serve-setup";
            makeFreshDir(dir);
            state.server = std::make_unique<slip::serve::Server>(
                serverOptions(dir));
            std::string err;
            if (!state.server->start(err))
                throw std::runtime_error("slipd start failed: " + err);
            return state;
        });
    setup.server.reset();
    setupLayerValues(setupTr, insts, r);
    {
        std::error_code ec;
        fs::remove_all(o.tmpDir + "/serve-setup", ec);
    }

    // Timed passes, each with a fresh server and cache. Pass p runs
    // plan p mod kPlanSets: enough distinct plans that a rare slow
    // trial moves a minority of passes, few enough to verify cheaply.
    constexpr size_t kPlanSets = 4;
    std::vector<ServePlan> plans{std::move(setup.plan)};
    std::vector<ServePass> passes;
    size_t misses = 0;
    for (const std::vector<Submission> &client : plans.front().perClient)
        for (const Submission &sub : client)
            misses += !sub.repeat;
    timedPasses(untracedBudget(o), passesFor(o, misses, 200, r), [&] {
        const size_t p = passes.size() % kPlanSets;
        if (p == plans.size())
            plans.push_back(planServe(o, p));
        double wall = 0.0;
        passes.push_back(
            runServePass(o, plans[p], passes.size(), nullptr, wall));
        r.passS.push_back(wall);
    }, &r.peakRssMb);

    // Verification: every distinct batch through the in-process
    // pipeline, then every served journal against it.
    std::vector<FaultCampaignConfig> cfgs;
    std::vector<size_t> firstCfg; // per plan: index of its batch 0
    for (const ServePlan &plan : plans) {
        firstCfg.push_back(cfgs.size());
        for (const slip::serve::BatchRequest &b : plan.batches)
            cfgs.push_back(b.toCampaignConfig());
    }
    Tracer refTr;
    const std::vector<RefCampaign> ref =
        referencePipeline(cfgs, workerCount(), o.trace ? &refTr : nullptr);
    std::vector<std::string> refJournal;
    for (const RefCampaign &c : ref)
        refJournal.push_back(c.journal());

    // Checks pass `index`; fills the latency lists when `timed`.
    uint64_t hits = 0, served = 0;
    r.passInsts.assign(passes.size(), 0.0);
    std::vector<double> overheadMs;
    const auto verifyPass = [&](const ServePass &pass, size_t index,
                                bool timed) {
        const size_t p = index % kPlanSets;
        const ServePlan &plan = plans[p];
        for (size_t c = 0; c < pass.perClient.size(); ++c)
            for (size_t k = 0; k < pass.perClient[c].size(); ++k) {
                const Served &s = pass.perClient[c][k];
                const Submission &sub = plan.perClient[c][k];
                const size_t refIndex = firstCfg[p] + sub.batch;
                const std::string what = "pass " + std::to_string(index) +
                                         " client " + std::to_string(c) +
                                         " batch " + std::to_string(k);
                ++r.attempted;
                if (!s.ok) {
                    r.fail(what + " did not end Ok: " + s.error);
                    continue;
                }
                if (s.journal != refJournal[refIndex]) {
                    r.fail(what + ": served lines differ from the "
                                  "in-process pipeline");
                    continue;
                }
                const bool cached = s.hits == s.completed;
                if (sub.repeat != cached) {
                    r.fail(what + (sub.repeat
                                       ? ": repeat batch missed the cache"
                                       : ": new batch hit the cache"));
                    continue;
                }
                if (!timed)
                    continue;
                hits += s.hits;
                served += s.completed;
                if (cached) {
                    r.cachedBatchMs.push_back(s.ms);
                    continue;
                }
                r.jobMs.push_back(s.ms);
                double trialMs = 0.0;
                for (const RefTrial &t : ref[refIndex].trials) {
                    trialMs += t.runMs;
                    r.passInsts[index] += double(t.metrics.retired);
                }
                overheadMs.push_back(s.ms - trialMs);
            }
    };
    for (size_t p = 0; p < passes.size(); ++p)
        verifyPass(passes[p], p, true);
    if (served)
        r.values["cache_hit_pct"] = 100.0 * double(hits) / double(served);

    const slip::serve::ServeStats &st = passes.front().stats;
    std::ostringstream line;
    std::string first;
    for (size_t i = 0; i < plans.front().batches.size(); ++i)
        first += refJournal[i];
    line << "serve first pass: batches=" << plans.front().batches.size()
         << " trials_run=" << st.trialsRun
         << " trials_cached=" << st.trialsCached
         << " journal_bytes=" << first.size() << " journal_fnv=" << std::hex
         << fnv1a(first);
    r.digest.push_back(line.str());

    if (!o.trace)
        return r;

    std::vector<double> handshakes;
    for (const ServePass &p : passes)
        handshakes.insert(handshakes.end(), p.handshakeMs.begin(),
                          p.handshakeMs.end());
    r.values["serve.handshake_ms"] = median(handshakes);
    r.values["serve.cache_hits"] = double(st.cacheHits);
    r.values["serve.cache_misses"] = double(st.cacheMisses);
    r.values["serve.cache_stores"] = double(st.cacheStores);
    r.values["serve.miss_batch_overhead_ms"] = median(overheadMs);
    r.values["harness.trial_run_ms_p50"] =
        keptSpanMedianMs(refTr, SpanName::TrialRun);
    r.values["harness.record_us_p50"] =
        keptSpanMedianMs(refTr, SpanName::Record) * 1e3;
    r.values["harness.journal_bytes"] = double(first.size());
    r.values["harness.plan_ms"] =
        refTr.totalS(SpanName::Plan) * 1e3 / double(cfgs.size());

    // Traced passes replay the untraced passes' plans, whose
    // references exist.
    Tracer tr;
    timedPasses(o.seconds / 2, 1, [&] {
        const size_t index = r.tracedPassS.size() % passes.size();
        double wall = 0.0;
        const ServePass pass = runServePass(
            o, plans[index % kPlanSets], passes.size() + r.tracedPassS.size(),
            &tr, wall);
        r.tracedPassS.push_back(wall);
        verifyPass(pass, index, false);
    });
    noteSpans(setupTr, r);
    noteSpans(refTr, r);
    noteSpans(tr, r);
    setTraceWall(r, median(r.passS), median(r.tracedPassS));
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-cmp", "ss-scaling", "fault-campaign", "serve-mixed"};
    return names;
}

Report
runWorkload(const Options &o)
{
    makeFreshDir(o.tmpDir);
    Report r;
    if (o.workload == "paper-cmp") {
        r = runSimSweep(o, {o.smoke ? WorkloadSize::Test : WorkloadSize::Small,
                            3,
                            o.smoke ? 20'000u : 30'000u,
                            {Model::SS64x4, Model::CMP},
                            true,
                            50});
    } else if (o.workload == "ss-scaling") {
        r = runSimSweep(o, {o.smoke ? WorkloadSize::Test
                                    : WorkloadSize::Default,
                            2,
                            o.smoke ? 20'000u : 250'000u,
                            {Model::SS64x4, Model::SS128x8},
                            false,
                            40});
    } else if (o.workload == "fault-campaign") {
        r = runFaultCampaignWorkload(o);
    } else if (o.workload == "serve-mixed") {
        r = runServeMixed(o);
    } else {
        throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    std::error_code ec;
    fs::remove_all(o.tmpDir, ec);
    return r;
}

} // namespace slipbench
