/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * hot structures — trace predictor lookup/update, IR-detector trace
 * merging, operand-rename-table scope eviction, cache access, the
 * assembler, and the functional simulator.
 * These guard the *simulator's* own performance (host MIPS), which
 * bounds how large the paper-scale experiments can be.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "assembler/assembler.hh"
#include "func/exec_engine.hh"
#include "func/func_sim.hh"
#include "mem/memory.hh"
#include "mem/cache.hh"
#include "slipstream/ir_detector.hh"
#include "slipstream/ir_predictor.hh"
#include "slipstream/operand_rename_table.hh"
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
    plan.reasons.assign(16, reason::kBR);
    uint64_t i = 0;
    for (auto _ : state) {
        const TraceId id{0x1000 + (i & 63) * 4, 0, 0, 16};
        pred.update(h, id, plan);
        ++i;
    }
}
BENCHMARK(BM_IRPredictorUpdate);

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
// gate can track the threaded/legacy speedup ratio (machine-portable,
// unlike raw insts/s).
void
BM_FunctionalSimDispatch(benchmark::State &state, DispatchKind kind)
{
    if (kind == DispatchKind::Threaded && !threadedDispatchCompiled()) {
        state.SkipWithError("threaded dispatch not compiled in");
        return;
    }
    const Program p =
        assemble(getWorkload("jpeg", WorkloadSize::Test).source);
    uint64_t insts = 0;
    for (auto _ : state) {
        FuncSim sim(p);
        sim.setDispatch(kind);
        insts += sim.run().instCount;
    }
    state.counters["insts/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, legacy,
                  DispatchKind::Legacy);
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, switch_,
                  DispatchKind::Switch);
BENCHMARK_CAPTURE(BM_FunctionalSimDispatch, threaded,
                  DispatchKind::Threaded);

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
