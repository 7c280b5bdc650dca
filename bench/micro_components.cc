/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * hot structures — trace predictor lookup/update, IR-detector trace
 * merging, operand-rename-table scope eviction, the OoO core's store
 * window, cache access, the assembler, the functional simulator, and
 * the whole SS and slipstream cycle models. These guard the
 * *simulator's* own performance (host MIPS), which bounds how large
 * the paper-scale experiments can be.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <optional>
#include <vector>

#include "assembler/assembler.hh"
#include "func/exec_engine.hh"
#include "func/func_sim.hh"
#include "mem/memory.hh"
#include "mem/cache.hh"
#include "oracle/ssir_oracle.hh"
#include "slipstream/ir_detector.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/operand_rename_table.hh"
#include "slipstream/slipstream_processor.hh"
#include "uarch/core.hh"
#include "uarch/ss_processor.hh"
#include "uarch/trace_pred.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace slip;

void
BM_TracePredictorLookup(benchmark::State &state)
{
    TracePredictor pred;
    PathHistory h;
    TraceId ids[16];
    for (unsigned i = 0; i < 16; ++i) {
        ids[i] = TraceId{0x1000 + i * 0x80, i, 4, 16};
        pred.update(h, ids[i]);
        h.push(ids[i]);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pred.predict(h));
        h.push(ids[i++ & 15]);
    }
}
BENCHMARK(BM_TracePredictorLookup);

void
BM_TracePredictorUpdate(benchmark::State &state)
{
    TracePredictor pred;
    PathHistory h;
    uint64_t i = 0;
    for (auto _ : state) {
        const TraceId id{0x1000 + (i & 255) * 4, i & 7, 3, 16};
        pred.update(h, id);
        h.push(id);
        ++i;
    }
}
BENCHMARK(BM_TracePredictorUpdate);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 64 * 1024, 4, 64, 1, 12});
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr + 4096 + 64) & 0xfffff;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_IRPredictorUpdate(benchmark::State &state)
{
    IRPredictor pred;
    PathHistory h;
    RemovalPlan plan;
    plan.irVec = 0x5555;
    for (unsigned i = 0; i < 16; ++i)
        plan.setReason(i, reason::kBR);
    uint64_t i = 0;
    for (auto _ : state) {
        const TraceId id{0x1000 + (i & 63) * 4, 0, 0, 16};
        pred.update(h, id, plan);
        ++i;
    }
}
BENCHMARK(BM_IRPredictorUpdate);

/**
 * Retired traces fed straight to an IR-detector: kSlots ALU
 * instructions per trace, slot i writing r(1 + i % 8) with a value
 * that changes every trace. `dense`: slot i reads slot i-1's register
 * as both operands, two same-trace R-DFG edges per slot (the
 * rs1 == rs2 case). Otherwise every slot reads r0 and the graph has
 * no edges. Both sides kill and finalize the same way.
 */
class DetectorTraceLoop
{
  public:
    explicit DetectorTraceLoop(bool dense)
        : detector(IRDetectorParams{}, pred), rExec(kSlots)
    {
        packet.actualId = TraceId{kPc, 0, 0, kSlots};
        packet.slots.resize(kSlots);
        for (unsigned i = 0; i < kSlots; ++i) {
            const RegIndex rd = RegIndex(1 + i % 8);
            const RegIndex rs =
                dense && i > 0 ? RegIndex(1 + (i - 1) % 8) : kZeroReg;
            PacketSlot &slot = packet.slots[i];
            slot.pc = kPc + 4 * i;
            slot.si = {Opcode::ADD, rd, rs, rs, 0};
            slot.executedInA = true;
            rExec[i].wroteReg = true;
            rExec[i].destReg = rd;
            rExec[i].nextPc = slot.pc + 4;
        }
    }

    void
    trace()
    {
        packet.num = ++num;
        for (unsigned i = 0; i < kSlots; ++i)
            rExec[i].destValue = num * kSlots + i;
        detector.processTrace(RetiredTrace{&packet, &rExec, &history});
    }

  private:
    static constexpr unsigned kSlots = 32;
    static constexpr Addr kPc = 0x1000;

    IRPredictor pred;
    IRDetector detector;
    Packet packet;
    std::vector<ExecResult> rExec;
    PathHistory history;
    uint64_t num = 0;
};

// Same-trace dataflow edges must cost no more than the bookkeeping
// they need: a per-edge allocation shows as dense running well behind
// flat. The two run in alternating batches, as in BM_OrtScopeEviction;
// bench_diff derives speedup/irdetect_dense_vs_flat =
// ns_at_flat / ns_at_dense (ns per trace).
void
BM_IRDetectorTrace(benchmark::State &state)
{
    constexpr unsigned kBatch = 64;
    DetectorTraceLoop dense(true), flat(false);
    double denseNs = 0, flatNs = 0;
    const auto timeBatch = [](DetectorTraceLoop &loop) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kBatch; ++i)
            loop.trace();
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (auto _ : state) {
        denseNs += timeBatch(dense);
        flatNs += timeBatch(flat);
    }
    const double traces = double(state.iterations()) * kBatch;
    state.counters["ns_at_dense"] = denseNs / traces;
    state.counters["ns_at_flat"] = flatNs / traces;
}
BENCHMARK(BM_IRDetectorTrace);

/**
 * The IR-detector's ORT over an 8-packet scope, pre-filled to a given
 * number of value-only memory entries. One trace makes four stores
 * and four register writes, then the packet eight traces back leaves
 * the scope. The stores cycle over the first 64 entries, so the table
 * size stays fixed.
 */
class OrtScopeLoop
{
  public:
    explicit OrtScopeLoop(uint64_t entries)
    {
        for (uint64_t k = 0; k < entries; ++k)
            ort.writeMem(kBase + 8 * k, 8, k, OrtProducer{0, 0});
        ort.invalidateProducer(0);
    }

    void
    trace()
    {
        ++packet;
        for (uint8_t slot = 0; slot < 4; ++slot) {
            const Addr addr = kBase + 8 * ((packet * 4 + slot) & 63);
            benchmark::DoNotOptimize(
                ort.writeMem(addr, 8, packet, OrtProducer{packet, slot}));
            benchmark::DoNotOptimize(
                ort.writeReg(RegIndex(1 + slot), packet,
                             OrtProducer{packet, uint8_t(slot + 4)}));
        }
        if (packet > kScope)
            ort.invalidateProducer(packet - kScope);
    }

  private:
    static constexpr Addr kBase = 0x100000;
    static constexpr uint64_t kScope = 8;
    OperandRenameTable ort;
    uint64_t packet = 0;
};

// Scope eviction must not depend on the table size. The 64-entry and
// 65,536-entry tables run in alternating batches, so a change in host
// speed during the run lands on both sides of their ratio: bench_diff
// derives speedup/ort_evict_large_vs_small = ns_at_64 / ns_at_65536,
// ~1 unless eviction scans the table.
void
BM_OrtScopeEviction(benchmark::State &state)
{
    constexpr unsigned kBatch = 256;
    OrtScopeLoop small(64), large(65536);
    double smallNs = 0, largeNs = 0;
    const auto timeBatch = [](OrtScopeLoop &loop) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kBatch; ++i)
            loop.trace();
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (auto _ : state) {
        smallNs += timeBatch(small);
        largeNs += timeBatch(large);
    }
    const double traces = double(state.iterations()) * kBatch;
    state.counters["ns_at_64"] = smallNs / traces;
    state.counters["ns_at_65536"] = largeNs / traces;
}
BENCHMARK(BM_OrtScopeEviction);

/**
 * An endless scripted stream for one OoOCore: every 16-instruction
 * block is twelve stores walking a `footprintWords`-word region and
 * four loads of one hot line the stores never touch. No load forwards
 * from a store and a store's timing does not depend on its address,
 * so every footprint simulates the same cycles; only the host cost of
 * tracking the stores can differ.
 */
class StoreWindowSource : public FetchSource
{
  public:
    explicit StoreWindowSource(uint64_t footprintWords)
        : footprintWords(footprintWords), pattern(kBlock)
    {
        for (unsigned i = 0; i < kBlock; ++i) {
            DynInst &d = pattern[i];
            d.pc = kPc + 4 * i;
            d.exec.nextPc = d.pc + 4;
            d.exec.isMem = true;
            d.exec.memBytes = 8;
            if (isStore(i)) {
                d.si = {Opcode::SD, 0, 0, 5, 0};
            } else {
                const RegIndex rd = RegIndex(6 + i / 4);
                d.si = {Opcode::LD, rd, 0, 0, 0};
                d.exec.wroteReg = true;
                d.exec.destReg = rd;
                d.exec.memAddr = kHotLine + 8 * (i / 4);
            }
        }
    }

    bool
    nextBlock(FetchBlock &block) override
    {
        block.startAddr = kPc;
        block.insts = pattern;
        for (unsigned i = 0; i < kBlock; ++i) {
            DynInst &d = block.insts[i];
            d.seq = ++seq;
            if (isStore(i))
                d.exec.memAddr =
                    kStoreBase + 8 * (nextWord++ % footprintWords);
        }
        return true;
    }

    bool exhausted() const override { return false; }

  private:
    static constexpr unsigned kBlock = 16;
    static constexpr Addr kPc = 0x1000;
    static constexpr Addr kHotLine = 0x40;
    static constexpr Addr kStoreBase = 0x100000;

    static bool isStore(unsigned i) { return i % 4 != 3; }

    uint64_t footprintWords;
    std::vector<DynInst> pattern;
    uint64_t nextWord = 0;
    InstSeqNum seq = 0;
};

/** An SS(64x4) core driven by a StoreWindowSource. */
struct StoreWindowLoop
{
    explicit StoreWindowLoop(uint64_t footprintWords)
        : source(footprintWords), core(CoreParams{}, source)
    {}

    void
    run(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i)
            core.tick(now++);
    }

    StoreWindowSource source;
    OoOCore core;
    Cycle now = 0;
};

// Tracking in-flight stores must not depend on how many distinct
// words the program has stored to. The 64-word and 1M-word footprints
// run in alternating batches, as in BM_OrtScopeEviction; bench_diff
// derives speedup/core_store_large_vs_small = ns_at_64 / ns_at_1M
// (ns per simulated cycle), ~1 unless the core keeps per-word state
// that grows with the footprint.
void
BM_CoreStoreWindow(benchmark::State &state)
{
    constexpr unsigned kBatch = 512;
    StoreWindowLoop small(64), large(1u << 20);
    double smallNs = 0, largeNs = 0;
    const auto timeBatch = [](StoreWindowLoop &loop) {
        const auto start = std::chrono::steady_clock::now();
        loop.run(kBatch);
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (auto _ : state) {
        smallNs += timeBatch(small);
        largeNs += timeBatch(large);
    }
    if (small.core.retiredCount() != large.core.retiredCount()) {
        state.SkipWithError("footprints simulated different cycles");
        return;
    }
    benchmark::DoNotOptimize(small.core.retiredCount());
    const double cycles = double(state.iterations()) * kBatch;
    state.counters["ns_at_64"] = smallNs / cycles;
    state.counters["ns_at_1M"] = largeNs / cycles;
}
BENCHMARK(BM_CoreStoreWindow);

void
BM_Assembler(benchmark::State &state)
{
    const std::string src =
        getWorkload("m88ksim", WorkloadSize::Test).source;
    for (auto _ : state) {
        benchmark::DoNotOptimize(assemble(src));
    }
    state.SetLabel("m88ksim workload source");
}
BENCHMARK(BM_Assembler);

void
BM_FunctionalSimMips(benchmark::State &state)
{
    const Program p =
        assemble(getWorkload("jpeg", WorkloadSize::Test).source);
    uint64_t insts = 0;
    for (auto _ : state) {
        FuncSim sim(p);
        insts += sim.run().instCount;
    }
    state.counters["insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalSimMips);

// Same workload pinned to each dispatch engine, so the regression
// gate can track each engine's speedup over the per-instruction
// reference loop (machine-portable, unlike raw insts/s). `legacy`
// (no engine) is that loop: the hand-written reference executor
// stepped once per instruction (Program::fetch, execute, count the
// retire).
void
BM_FunctionalSimDispatch(benchmark::State &state,
                         std::optional<DispatchKind> kind)
{
    if (kind == DispatchKind::Threaded && !threadedDispatchCompiled()) {
        state.SkipWithError("threaded dispatch not compiled in");
        return;
    }
    const Program p =
        assemble(getWorkload("jpeg", WorkloadSize::Test).source);
    uint64_t insts = 0;
    for (auto _ : state) {
        if (kind) {
            FuncSim sim(p);
            sim.setDispatch(*kind);
            insts += sim.run().instCount;
        } else {
            OracleSim sim(p);
            insts += sim.run().instCount;
        }
    }
    state.counters["insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, legacy,
                  std::optional<DispatchKind>());
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, switch_,
                  std::optional(DispatchKind::Switch));
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, threaded,
                  std::optional(DispatchKind::Threaded));

// The whole cycle models against the functional core in the same
// binary: SS(64x4) and the slipstream CMP under the `ir` policy run
// two paper programs at `test` size, and FuncSim runs the same
// programs. Only run() is timed, not construction. Each iteration runs
// all three on each program, and each (program, model) pair keeps its
// fastest run, so a burst of host load during one run does not skew a
// side. The counters are ns per retired instruction over both
// programs; bench_diff derives speedup/{ss,cmp}_vs_func = simulated
// insts/s over functional insts/s = ns_at_func / ns_at_{ss,cmp}.
void
BM_CycleModel(benchmark::State &state)
{
    std::vector<Program> programs;
    for (const char *name : {"compress", "m88ksim"})
        programs.push_back(
            assemble(getWorkload(name, WorkloadSize::Test).source));
    SlipstreamParams cmpParams;
    cmpParams.aPolicy.kind = AStreamPolicyKind::IRRemoval;

    enum Model { Func, SS, CMP, NumModels };
    struct Best
    {
        double ns = 0;
        uint64_t insts = 0;
        void
        note(double runNs, uint64_t runInsts)
        {
            if (insts == 0 || runNs < ns)
                ns = runNs;
            insts = runInsts;
        }
    };
    std::vector<std::array<Best, NumModels>> best(programs.size());

    using Clock = std::chrono::steady_clock;
    const auto nsSince = [](Clock::time_point start) {
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        start)
            .count();
    };
    for (auto _ : state) {
        for (size_t i = 0; i < programs.size(); ++i) {
            const Program &p = programs[i];
            FuncSim func(p);
            auto start = Clock::now();
            const FuncRunResult golden = func.run();
            best[i][Func].note(nsSince(start), golden.instCount);

            SSProcessor ss(p);
            start = Clock::now();
            const SSRunResult ssRun = ss.run();
            best[i][SS].note(nsSince(start), ssRun.retired);

            SlipstreamProcessor cmp(p, cmpParams);
            start = Clock::now();
            const SlipstreamRunResult cmpRun = cmp.run();
            best[i][CMP].note(nsSince(start), cmpRun.rRetired);

            if (ssRun.output != golden.output ||
                cmpRun.output != golden.output ||
                ssRun.retired != golden.instCount ||
                cmpRun.rRetired != golden.instCount) {
                state.SkipWithError("a cycle model diverged from FuncSim");
                return;
            }
        }
    }
    const auto nsPerInst = [&](Model m) {
        double ns = 0, insts = 0;
        for (const auto &perModel : best) {
            ns += perModel[m].ns;
            insts += double(perModel[m].insts);
        }
        return ns / insts;
    };
    state.counters["ns_at_func"] = nsPerInst(Func);
    state.counters["ns_at_ss"] = nsPerInst(SS);
    state.counters["ns_at_cmp"] = nsPerInst(CMP);
}
BENCHMARK(BM_CycleModel)->Unit(benchmark::kMillisecond);

// Same-page accesses — the single-lookup memcpy fast path.
void
BM_MemorySamePageAccess(benchmark::State &state)
{
    Memory mem;
    mem.write(0x1000, 8, 1);
    Addr a = 0x1000;
    for (auto _ : state) {
        mem.write(a, 8, a);
        benchmark::DoNotOptimize(mem.read(a, 8));
        a = 0x1000 + ((a + 8) & 0xff8);
    }
}
BENCHMARK(BM_MemorySamePageAccess);

// Page-straddling accesses — the per-byte fallback path.
void
BM_MemoryPageCrossAccess(benchmark::State &state)
{
    Memory mem;
    const Addr edge = 2 * Memory::kPageBytes - 4;
    mem.write(edge, 8, 1);
    for (auto _ : state) {
        mem.write(edge, 8, edge);
        benchmark::DoNotOptimize(mem.read(edge, 8));
    }
}
BENCHMARK(BM_MemoryPageCrossAccess);

void
BM_MemoryReadBlock(benchmark::State &state)
{
    Memory mem;
    std::vector<uint8_t> image(64 * 1024, 0xa5);
    mem.writeBlock(0x100000, image.data(), image.size());
    std::vector<uint8_t> out(image.size());
    for (auto _ : state) {
        mem.readBlock(0x100000, out.data(), out.size());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(out.size()));
}
BENCHMARK(BM_MemoryReadBlock);

} // namespace
