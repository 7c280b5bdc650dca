#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "assembler/assembler.hh"
#include "uarch/fetch_source.hh"

namespace slip
{
namespace
{

/** A block of `n` instructions whose seqs start at `firstSeq`. */
void
fillBlock(FetchBlock &b, Addr start, unsigned n, InstSeqNum firstSeq)
{
    b.startAddr = start;
    b.insts.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        b.insts[i] = DynInst{};
        b.insts[i].seq = firstSeq + i;
        b.insts[i].pc = start + i * kInstBytes;
    }
}

TEST(BlockQueue, PopIntoRecyclesStorage)
{
    BlockQueue q;
    FetchBlock staged, out;
    std::set<const DynInst *> warmup, buffers;
    for (unsigned round = 0; round < 100; ++round) {
        fillBlock(staged, 0x1000 + 64 * round, 4, 1 + 4 * round);
        q.push(staged);
        EXPECT_TRUE(staged.insts.empty());

        q.popInto(out);
        ASSERT_EQ(out.insts.size(), 4u);
        EXPECT_EQ(out.startAddr, 0x1000 + 64 * round);
        EXPECT_EQ(out.insts.front().seq, 1 + 4 * round);
        EXPECT_EQ(out.insts.back().seq, 4 + 4 * round);
        (round < 20 ? warmup : buffers).insert(out.insts.data());
        if (round >= 20) { // the staging vector comes back with room
            EXPECT_GE(staged.insts.capacity(), 4u);
        }
    }
    EXPECT_TRUE(q.empty());
    // After warm-up the vectors only swap around: every block the
    // consumer sees lives in a buffer it has seen before.
    for (const DynInst *b : buffers)
        EXPECT_TRUE(warmup.count(b));
}

TEST(BlockQueue, KeepsFifoOrderAcrossGrowth)
{
    BlockQueue q;
    FetchBlock staged, out;
    for (unsigned i = 0; i < 37; ++i) {
        fillBlock(staged, 0x1000 + 4 * i, 1, 100 + i);
        q.push(staged);
    }
    EXPECT_EQ(q.back().insts.front().seq, 136u);
    for (unsigned i = 0; i < 37; ++i) {
        q.popInto(out);
        ASSERT_EQ(out.insts.size(), 1u);
        EXPECT_EQ(out.insts.front().seq, 100 + i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(BlockQueue, ClearDropsPendingBlocks)
{
    BlockQueue q;
    FetchBlock staged, out;
    for (unsigned i = 0; i < 3; ++i) {
        fillBlock(staged, 0x1000, 4, 1 + 4 * i);
        q.push(staged);
    }
    q.clear(); // recovery
    EXPECT_TRUE(q.empty());

    fillBlock(staged, 0x2000, 2, 50);
    q.push(staged);
    q.popInto(out);
    ASSERT_EQ(out.insts.size(), 2u);
    EXPECT_EQ(out.startAddr, 0x2000u);
    EXPECT_EQ(out.insts.front().seq, 50u);
    EXPECT_TRUE(q.empty());
}

TEST(BlockSlicer, EndsBlocksAtCapacityDiscontinuityAndRedirects)
{
    BlockSlicer slicer(4);
    BlockQueue q;
    InstSeqNum seq = 0;
    const auto emit = [&](Addr pc, bool mispredicted = false) {
        DynInst &d = slicer.open(pc, q);
        d.seq = ++seq;
        d.pc = pc;
        d.mispredicted = mispredicted;
        slicer.close(q);
    };
    for (Addr pc = 0x100; pc < 0x100 + 6 * kInstBytes; pc += kInstBytes)
        emit(pc); // 4 + 2: capacity split
    emit(0x400);  // discontinuous: ends the 2-instruction block
    emit(0x404, true); // a redirect ends its block
    emit(0x500);
    slicer.finish(q);

    std::vector<std::vector<InstSeqNum>> got;
    FetchBlock out;
    while (!q.empty()) {
        q.popInto(out);
        got.emplace_back();
        for (const DynInst &d : out.insts)
            got.back().push_back(d.seq);
    }
    const std::vector<std::vector<InstSeqNum>> want = {
        {1, 2, 3, 4}, {5, 6}, {7, 8}, {9}};
    EXPECT_EQ(got, want);
}

const char *kBranchyLoop = R"(
main:
    li   t0, 0
    li   t4, 0
loop:
    andi t1, t0, 3
    beq  t1, zero, skip
    addi t4, t4, 1
skip:
    addi t0, t0, 1
    li   t3, 40
    blt  t0, t3, loop
    putn t4
    halt
)";

/** Every instruction of one program, as a TraceFetchSource walks it. */
std::vector<DynInst>
walkAll(TraceFetchSource &src)
{
    std::vector<DynInst> insts;
    FetchBlock b;
    while (src.nextBlock(b))
        insts.insert(insts.end(), b.insts.begin(), b.insts.end());
    return insts;
}

/** The trace id the source computes for one walked trace. */
TraceId
traceOf(const std::vector<DynInst> &trace)
{
    TraceId id;
    id.startPc = trace.front().pc;
    for (const DynInst &d : trace) {
        ++id.length;
        if (d.si.isCondBranch()) {
            if (d.exec.taken && id.numBranches < 64)
                id.branchBits |= uint64_t(1) << id.numBranches;
            ++id.numBranches;
        }
    }
    return id;
}

TEST(TraceFetchSource, FlushedTraceDropsOutOfTraining)
{
    const Program program = assemble(kBranchyLoop);

    // Walk the whole program before anything retires, so the walk
    // itself does not depend on training.
    TracePredictor trained;
    TraceFetchSource src(program, trained);
    const std::vector<DynInst> insts = walkAll(src);

    std::map<uint64_t, std::vector<DynInst>> traces;
    for (const DynInst &d : insts)
        traces[d.packetSeq].push_back(d);
    ASSERT_GE(traces.size(), 6u);

    // Trace 3's last instruction is flushed; everything else retires
    // in order (trace 3's older instructions too).
    const uint64_t flushed = 3;
    const InstSeqNum flushedLast = traces[flushed].back().seq;
    for (const DynInst &d : insts) {
        if (d.seq != flushedLast)
            src.notifyRetire(d);
    }

    // Reference: the speculative path history before each trace, and
    // one update per trace whose last instruction retired.
    TracePredictor reference;
    PathHistory history;
    std::vector<PathHistory> before;
    for (const auto &[num, trace] : traces) {
        before.push_back(history);
        const TraceId id = traceOf(trace);
        if (num != flushed)
            reference.update(history, id);
        history.push(id);
    }

    EXPECT_EQ(trained.stats().get("updates"), traces.size() - 1);
    EXPECT_EQ(trained.stats().get("updates"),
              reference.stats().get("updates"));
    for (const PathHistory &h : before)
        EXPECT_EQ(trained.predict(h), reference.predict(h));
}

} // namespace
} // namespace slip
