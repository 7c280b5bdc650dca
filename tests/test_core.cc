#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/invariant.hh"
#include "common/random.hh"
#include "uarch/core.hh"

namespace slip
{
namespace
{

/** Scripted fetch source: serves a fixed list of blocks. */
class ScriptedSource : public FetchSource
{
  public:
    bool
    nextBlock(FetchBlock &block) override
    {
        if (blocks.empty())
            return false;
        block = std::move(blocks.front());
        blocks.pop_front();
        return true;
    }

    bool exhausted() const override { return blocks.empty(); }

    /** Append a block of `n` simple ALU ops ending optionally in halt. */
    void
    addAluBlock(unsigned n, bool endWithHalt = false,
                RegIndex chainReg = kNoReg)
    {
        FetchBlock b;
        b.startAddr = nextPc;
        for (unsigned i = 0; i < n; ++i) {
            DynInst d;
            d.seq = ++seq;
            d.pc = nextPc;
            const bool last = endWithHalt && i + 1 == n;
            if (last) {
                d.si = {Opcode::HALT, 0, 0, 0, 0};
            } else if (chainReg != kNoReg) {
                // Serial dependence chain through chainReg.
                d.si = {Opcode::ADDI, chainReg, chainReg, 0, 1};
                d.exec.wroteReg = true;
                d.exec.destReg = chainReg;
            } else {
                d.si = {Opcode::ADDI, RegIndex(1 + (seq % 8)), 0, 0, 1};
                d.exec.wroteReg = true;
                d.exec.destReg = RegIndex(1 + (seq % 8));
            }
            d.exec.nextPc = nextPc + 4;
            nextPc += 4;
            b.insts.push_back(d);
        }
        blocks.push_back(std::move(b));
    }

    /**
     * Append one instruction to `b`, with the register and memory
     * effects its opcode implies; `memAddr` is used by loads/stores.
     */
    DynInst &
    append(FetchBlock &b, const StaticInst &si, Addr memAddr = 0)
    {
        if (b.insts.empty())
            b.startAddr = nextPc;
        DynInst d;
        d.seq = ++seq;
        d.pc = nextPc;
        d.si = si;
        if (si.destReg() != kNoReg) {
            d.exec.wroteReg = true;
            d.exec.destReg = si.destReg();
        }
        if (si.isLoad() || si.isStore()) {
            d.exec.isMem = true;
            d.exec.memAddr = memAddr;
            d.exec.memBytes = si.memBytes();
        }
        d.exec.nextPc = nextPc + 4;
        nextPc += 4;
        b.insts.push_back(d);
        return b.insts.back();
    }

    std::deque<FetchBlock> blocks;
    InstSeqNum seq = 0;
    Addr nextPc = 0x1000;
};

Cycle
runToHalt(OoOCore &core, Cycle limit = 100000)
{
    Cycle now = 0;
    while (!core.halted() && now < limit) {
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.halted()) << "core did not halt";
    return now;
}

CoreParams
narrowParams()
{
    CoreParams p;
    p.name = "test_core";
    return p;
}

TEST(OoOCore, RunsAndRetiresEverything)
{
    ScriptedSource src;
    src.addAluBlock(16);
    src.addAluBlock(16);
    src.addAluBlock(8, true);
    OoOCore core(narrowParams(), src);
    runToHalt(core);
    EXPECT_EQ(core.retiredCount(), 40u);
    EXPECT_TRUE(core.pipelineEmpty());
}

TEST(OoOCore, IndependentOpsReachRetireWidthIpc)
{
    ScriptedSource src;
    for (int i = 0; i < 40; ++i) {
        src.nextPc = 0x1000; // loop over one I-cache line: warm fetch
        src.addAluBlock(16);
    }
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    const Cycle cycles = runToHalt(core);
    const double ipc = double(core.retiredCount()) / cycles;
    // 4-wide machine on independent ALU ops: close to 4, minus ramp.
    EXPECT_GT(ipc, 3.2);
}

TEST(OoOCore, DependenceChainLimitsIpc)
{
    ScriptedSource src;
    for (int i = 0; i < 40; ++i)
        src.addAluBlock(16, false, 5); // serial chain through r5
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    const Cycle cycles = runToHalt(core);
    const double ipc = double(core.retiredCount()) / cycles;
    // One-at-a-time dependent ops: IPC ~1.
    EXPECT_LT(ipc, 1.3);
}

TEST(OoOCore, MispredictStallsFetch)
{
    // Same instruction stream, with and without a mispredicted branch.
    const auto build = [](bool mispredict) {
        auto src = std::make_unique<ScriptedSource>();
        src->addAluBlock(8);
        // A branch ending the block.
        FetchBlock b;
        b.startAddr = src->nextPc;
        DynInst br;
        br.seq = ++src->seq;
        br.pc = src->nextPc;
        br.si = {Opcode::BNE, 0, 1, 0, 4};
        br.exec.isControl = true;
        br.exec.taken = true;
        br.exec.target = src->nextPc + 16;
        br.exec.nextPc = br.exec.target;
        br.mispredicted = mispredict;
        src->nextPc = br.exec.target;
        b.insts.push_back(br);
        src->blocks.push_back(std::move(b));
        src->addAluBlock(8, true);
        return src;
    };

    auto clean = build(false);
    OoOCore coreClean(narrowParams(), *clean);
    const Cycle cleanCycles = runToHalt(coreClean);

    auto dirty = build(true);
    OoOCore coreDirty(narrowParams(), *dirty);
    const Cycle dirtyCycles = runToHalt(coreDirty);

    EXPECT_GT(dirtyCycles, cleanCycles + 3);
    EXPECT_EQ(coreDirty.stats().get("branch_mispredicts"), 1u);
}

TEST(OoOCore, FetchOnlyInstructionsNeverDispatch)
{
    ScriptedSource src;
    FetchBlock b;
    b.startAddr = 0x1000;
    for (int i = 0; i < 4; ++i) {
        DynInst d;
        d.seq = i + 1;
        d.pc = 0x1000 + 4 * i;
        d.si = {Opcode::ADDI, 1, 1, 0, 1};
        d.fetchOnly = i < 2; // first two removed pre-decode
        d.exec.nextPc = d.pc + 4;
        b.insts.push_back(d);
    }
    src.blocks.push_back(std::move(b));
    src.seq = 4;
    src.addAluBlock(1, true);
    OoOCore core(narrowParams(), src);
    runToHalt(core);
    EXPECT_EQ(core.stats().get("fetched"), 5u);
    EXPECT_EQ(core.stats().get("fetch_only_removed"), 2u);
    EXPECT_EQ(core.retiredCount(), 3u);
}

TEST(OoOCore, RetireHookBackPressureBlocksRetirement)
{
    ScriptedSource src;
    src.addAluBlock(4, true);
    OoOCore core(narrowParams(), src);
    int allowed = 0;
    core.onRetire = [&](const DynInst &, Cycle) {
        return allowed-- > 0; // permit one retire per grant
    };
    Cycle now = 0;
    while (!core.halted() && now < 1000) {
        allowed = 1;
        core.tick(now);
        ++now;
    }
    EXPECT_TRUE(core.halted());
    // One retirement per cycle at most under this back-pressure.
    EXPECT_GE(now, 4u);
}

TEST(OoOCore, FlushDiscardsInFlightWork)
{
    ScriptedSource src;
    for (int i = 0; i < 10; ++i)
        src.addAluBlock(16);
    OoOCore core(narrowParams(), src);
    for (Cycle now = 0; now < 6; ++now)
        core.tick(now);
    EXPECT_FALSE(core.pipelineEmpty());
    core.flush(6, 10);
    EXPECT_TRUE(core.pipelineEmpty());
    EXPECT_EQ(core.stats().get("flushes"), 1u);
}

TEST(OoOCore, IcacheMissDelaysFetch)
{
    // Two runs over many distinct lines vs the same line: the former
    // must take longer due to I-cache misses.
    ScriptedSource farSrc;
    for (int i = 0; i < 30; ++i) {
        farSrc.nextPc = 0x10000 + i * 0x10000; // distinct lines & sets
        farSrc.addAluBlock(8);
    }
    farSrc.addAluBlock(1, true);
    OoOCore farCore(narrowParams(), farSrc);
    const Cycle farCycles = runToHalt(farCore);

    ScriptedSource nearSrc;
    for (int i = 0; i < 30; ++i) {
        nearSrc.nextPc = 0x10000; // same line every time
        nearSrc.addAluBlock(8);
    }
    nearSrc.addAluBlock(1, true);
    OoOCore nearCore(narrowParams(), nearSrc);
    const Cycle nearCycles = runToHalt(nearCore);

    EXPECT_GT(farCycles, nearCycles);
    EXPECT_GT(farCore.icache().misses(), nearCore.icache().misses());
}


// ---- store-to-load forwarding through the in-flight store queue ----

constexpr Addr kWord0 = 0x2000; // three words of one D-cache line
constexpr Addr kWord1 = 0x2008;
constexpr Addr kWord2 = 0x2010;

/** Retire cycle of every instruction, by sequence number. */
std::map<InstSeqNum, Cycle>
recordRetires(OoOCore &core)
{
    std::map<InstSeqNum, Cycle> at;
    core.onRetire = [&at](const DynInst &d, Cycle now) {
        at[d.seq] = now;
        return true;
    };
    runToHalt(core);
    core.onRetire = nullptr;
    return at;
}

/**
 * A slow store (its data behind a two-DIV chain) to `slowAddr`, a
 * fast store to `fastAddr`, then a load of `loadBytes` at `loadAddr`
 * whose value feeds a three-DIV chain. In-order retirement hides when
 * the load completes unless something after it takes longer than the
 * slow store, hence the chain. Returns the HALT's retire cycle.
 */
Cycle
loadChainRetire(Addr slowAddr, Addr fastAddr, Addr loadAddr,
                Opcode load = Opcode::LD)
{
    ScriptedSource src;
    FetchBlock b;
    src.append(b, {Opcode::DIV, 1, 2, 3, 0});
    src.append(b, {Opcode::DIV, 1, 1, 3, 0});
    src.append(b, {Opcode::SD, 0, 0, 1, 0}, slowAddr);
    src.append(b, {Opcode::SD, 0, 0, 5, 0}, fastAddr);
    src.append(b, {load, 6, 0, 0, 0}, loadAddr);
    for (int i = 0; i < 3; ++i)
        src.append(b, {Opcode::DIV, 6, 6, 3, 0});
    src.append(b, {Opcode::HALT, 0, 0, 0, 0});
    src.blocks.push_back(std::move(b));
    invariants::Scope on(true);
    OoOCore core(narrowParams(), src);
    return recordRetires(core).at(src.seq);
}

TEST(OoOCoreStoreQueue, YoungerStoreShadowsOlderSlowStore)
{
    // The load forwards from the youngest store to its word: the same
    // cycles as if the slow store had written another word.
    const Cycle shadowed = loadChainRetire(kWord0, kWord0, kWord0);
    EXPECT_EQ(shadowed, loadChainRetire(kWord1, kWord0, kWord0));
    // With the fast store elsewhere, it waits for the slow one.
    const Cycle waits = loadChainRetire(kWord0, kWord1, kWord0);
    EXPECT_GT(waits, shadowed + 40);
}

TEST(OoOCoreStoreQueue, UnalignedLoadWaitsForLaterOfItsTwoWords)
{
    // An 8-byte load at kWord0 + 4 covers kWord0 and kWord1; it waits
    // for the later of the two words' youngest stores.
    const Cycle slowHigh = loadChainRetire(kWord1, kWord0, kWord0 + 4);
    EXPECT_EQ(slowHigh, loadChainRetire(kWord1, kWord2, kWord1));
    const Cycle slowLow = loadChainRetire(kWord0, kWord1, kWord0 + 4);
    EXPECT_EQ(slowLow, loadChainRetire(kWord0, kWord2, kWord0));
    EXPECT_GT(slowHigh, loadChainRetire(kWord2, kWord1, kWord0 + 4) + 40);
    // The fast store shadows the slow one on the high word, and the
    // low word has no store: only the fast store counts.
    EXPECT_EQ(loadChainRetire(kWord1, kWord1, kWord0 + 4),
              loadChainRetire(kWord2, kWord1, kWord0 + 4));
    // A 4-byte load at kWord0 + 4 stays inside kWord0.
    EXPECT_EQ(loadChainRetire(kWord1, kWord2, kWord0 + 4, Opcode::LW),
              loadChainRetire(kWord2, kWord2, kWord0 + 4, Opcode::LW));
}

TEST(OoOCoreStoreQueue, RetiredStoreNeverDelaysLaterLoad)
{
    // 200 stores to one word (far more than the ROB holds) all retire
    // before the load dispatches: the load sees none of them.
    const auto run = [](Addr storeAddr) {
        ScriptedSource src;
        for (int i = 0; i < 50; ++i) {
            FetchBlock b;
            for (int j = 0; j < 4; ++j)
                src.append(b, {Opcode::SD, 0, 0, 5, 0}, storeAddr);
            src.blocks.push_back(std::move(b));
        }
        src.addAluBlock(16);
        FetchBlock b;
        src.append(b, {Opcode::LD, 6, 0, 0, 0}, kWord0);
        src.append(b, {Opcode::DIV, 6, 6, 3, 0});
        src.append(b, {Opcode::HALT, 0, 0, 0, 0});
        src.blocks.push_back(std::move(b));
        invariants::Scope on(true);
        OoOCore core(narrowParams(), src);
        const auto at = recordRetires(core);
        EXPECT_EQ(core.retiredCount(), 219u);
        return at.at(src.seq);
    };
    EXPECT_EQ(run(kWord0), run(kWord1));
}

TEST(OoOCoreStoreQueue, FlushEmptiesStoreQueue)
{
    const auto run = [](Addr storeAddr) {
        ScriptedSource src;
        FetchBlock b;
        src.append(b, {Opcode::DIV, 1, 2, 3, 0});
        src.append(b, {Opcode::DIV, 1, 1, 3, 0});
        src.append(b, {Opcode::SD, 0, 0, 1, 0}, storeAddr);
        src.blocks.push_back(std::move(b));
        invariants::Scope on(true);
        OoOCore core(narrowParams(), src);
        Cycle now = 0;
        for (; now < 30; ++now)
            core.tick(now);
        EXPECT_EQ(core.stats().get("dispatched"), 3u);
        EXPECT_EQ(core.retiredCount(), 0u); // the store is in flight
        core.flush(now, now + 1);
        EXPECT_TRUE(core.pipelineEmpty());

        // After the flush a load of the flushed store's word must not
        // wait for it.
        FetchBlock after;
        src.append(after, {Opcode::LD, 6, 0, 0, 0}, kWord0);
        src.append(after, {Opcode::DIV, 6, 6, 3, 0});
        src.append(after, {Opcode::HALT, 0, 0, 0, 0});
        src.blocks.push_back(std::move(after));
        std::map<InstSeqNum, Cycle> at;
        core.onRetire = [&at](const DynInst &d, Cycle c) {
            at[d.seq] = c;
            return true;
        };
        for (; !core.halted() && now < 10000; ++now)
            core.tick(now);
        EXPECT_TRUE(core.halted());
        EXPECT_EQ(core.retiredCount(), 3u);
        return at.at(src.seq);
    };
    EXPECT_EQ(run(kWord0), run(kWord1));
}

TEST(OoOCoreStoreQueue, StoreHeavyStreamFitsASmallWindow)
{
    CoreParams p = narrowParams();
    p.robSize = 4;
    p.fetchWidth = 4;
    p.fetchBufferCap = 6;
    ScriptedSource src;
    for (int i = 0; i < 100; ++i) {
        FetchBlock b;
        src.append(b, {Opcode::SD, 0, 0, 5, 0}, kWord0 + 8 * (i % 3));
        src.append(b, {Opcode::SW, 0, 0, 6, 0}, kWord1 + 4);
        src.append(b, {Opcode::LD, 7, 0, 0, 0}, kWord0 + 4);
        src.append(b, {Opcode::SB, 0, 0, 7, 0}, kWord2 + i % 8);
        src.blocks.push_back(std::move(b));
    }
    src.addAluBlock(1, true);
    invariants::Scope on(true);
    OoOCore core(p, src);
    runToHalt(core, 20000);
    EXPECT_EQ(core.retiredCount(), 401u);
    EXPECT_TRUE(core.pipelineEmpty());
}

/**
 * Random streams of loads and stores of every size (aligned or not,
 * over a few lines so they overlap), ALU/MUL/DIV ops and flushes,
 * under three core shapes. Invariants are on, so every load's store
 * queue lookup is checked against the per-word youngest-store map,
 * and every retirement against the ROB and store-queue order.
 */
TEST(OoOCoreStoreQueue, RandomStreamsMatchPerWordMap)
{
    const Opcode loads[] = {Opcode::LB, Opcode::LHU, Opcode::LW,
                            Opcode::LD};
    const Opcode stores[] = {Opcode::SB, Opcode::SH, Opcode::SW,
                             Opcode::SD};
    const Opcode alu[] = {Opcode::ADD, Opcode::MUL, Opcode::DIV};
    invariants::Scope on(true);
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        CoreParams p = narrowParams();
        if (seed % 3 == 1) {
            p = CoreParams::wide8();
        } else if (seed % 3 == 2) {
            p.robSize = 8;
            p.fetchWidth = 4;
            p.fetchBufferCap = 8;
        }
        ScriptedSource src;
        const auto reg = [&rng] { return RegIndex(1 + rng.below(8)); };
        for (int blk = 0; blk < 300; ++blk) {
            FetchBlock b;
            const unsigned n = 1 + rng.below(p.fetchWidth);
            for (unsigned i = 0; i < n; ++i) {
                const Addr addr = 0x4000 + rng.below(192);
                const uint64_t kind = rng.below(10);
                if (kind < 3)
                    src.append(b, {loads[rng.below(4)], reg(), 0, 0, 0},
                               addr);
                else if (kind < 6)
                    src.append(b, {stores[rng.below(4)], 0, 0, reg(), 0},
                               addr);
                else
                    src.append(b, {alu[rng.below(3)], reg(), reg(),
                                   reg(), 0});
            }
            src.blocks.push_back(std::move(b));
        }
        src.addAluBlock(1, true);

        OoOCore core(p, src);
        Cycle now = 0;
        uint64_t flushes = 0;
        for (; !core.halted() && now < 200000; ++now) {
            // Flush only while the HALT is still in the source.
            if (src.blocks.size() > 1 && rng.chance(0.01)) {
                core.flush(now, now + rng.below(4));
                ++flushes;
            }
            core.tick(now);
        }
        EXPECT_TRUE(core.halted()) << "seed " << seed;
        EXPECT_GT(flushes, 0u) << "seed " << seed;
        EXPECT_GT(core.retiredCount(), 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace slip
