#include "uarch/fetch_source.hh"

#include "common/logging.hh"
#include "isa/regnames.hh"

namespace slip
{

TraceId
buildStaticTrace(const Program &program, Addr startPc,
                 const TracePolicy &policy)
{
    TraceId id;
    id.startPc = startPc;
    Addr pc = startPc;

    while (id.length < policy.maxLen) {
        const Addr here = pc;
        const StaticInst &si = program.fetch(here);
        ++id.length;

        bool taken = false;
        if (si.isCondBranch()) {
            // Backward-taken / forward-not-taken static heuristic.
            taken = si.imm < 0;
            if (taken && id.numBranches < 64)
                id.branchBits |= 1ull << id.numBranches;
            ++id.numBranches;
            pc = taken ? here + si.imm * kInstBytes : here + kInstBytes;
        } else if (si.op == Opcode::JAL) {
            taken = true;
            pc = here + si.imm * kInstBytes;
        } else {
            pc = here + kInstBytes;
        }
        if (endsTraceAfter(policy, si, taken, here, pc))
            break;
    }
    return id;
}

DynInst &
BlockSlicer::open(Addr fetchAddr, BlockQueue &out)
{
    const bool discontinuous = isOpen && fetchAddr != nextAddr;
    if (isOpen && (discontinuous || current.insts.size() >= maxBlock))
        finish(out);

    if (!isOpen) {
        current.startAddr = fetchAddr;
        current.insts.reserve(maxBlock);
        isOpen = true;
    }
    nextAddr = fetchAddr + kInstBytes;
    return current.insts.emplace_back();
}

void
BlockSlicer::close(BlockQueue &out)
{
    // Blocks end at taken control flow and after mispredictions (the
    // core must not see past a front-end redirect point).
    const DynInst &d = current.insts.back();
    const bool takenControl = d.exec.isControl && d.exec.taken;
    if (takenControl || d.mispredicted || d.si.isHalt())
        finish(out);
}

void
BlockSlicer::finish(BlockQueue &out)
{
    if (isOpen && !current.insts.empty())
        out.push(current);
    isOpen = false;
}

TraceFetchSource::TraceFetchSource(const Program &program,
                                   TracePredictor &predictor,
                                   unsigned fetchWidth,
                                   const TracePolicy &policy)
    : program(program), predictor(predictor), fetchWidth(fetchWidth),
      policy(policy), port(mem), state_(port),
      slicer(fetchWidth), stats_("fetch_source")
{
    program.loadInto(mem);
    state_.setPc(program.entry());
    state_.writeReg(reg::sp, layout::kStackTop);
}

TraceFetchSource::TraceFetchSource(const Program &program,
                                   TracePredictor &predictor,
                                   Memory &sharedMem,
                                   const ArchState &resumeFrom,
                                   unsigned fetchWidth,
                                   const TracePolicy &policy)
    : program(program), predictor(predictor), fetchWidth(fetchWidth),
      policy(policy), port(sharedMem), state_(port),
      slicer(fetchWidth), stats_("fetch_source")
{
    // Resume mode: the program image and data already live in
    // `sharedMem` (the slipstream R-stream ran there until now);
    // continue from the handed-over context instead of a cold start.
    state_.copyRegsFrom(resumeFrom);
    state_.setPc(resumeFrom.pc());
}

bool
TraceFetchSource::exhausted() const
{
    return haltWalked && blocks.empty();
}

bool
TraceFetchSource::nextBlock(FetchBlock &block)
{
    while (blocks.empty()) {
        if (haltWalked)
            return false;
        walkTrace();
    }
    blocks.popInto(block);
    return true;
}

void
TraceFetchSource::walkTrace()
{
    const Addr startPc = state_.pc();

    // --- choose the front end's guess for this trace ---
    std::optional<TraceId> pred;
    if (cachedNextPredValid) {
        pred = cachedNextPred;
        cachedNextPredValid = false;
    } else {
        pred = predictor.predict(history);
    }

    TraceId guess;
    if (pred && pred->valid() && pred->startPc == startPc &&
        program.validPc(startPc)) {
        guess = *pred;
        ++statTracesPredicted;
    } else {
        guess = buildStaticTrace(program, startPc, policy);
        ++statTracesFallback;
    }

    const PathHistory historyBefore = history;
    const uint64_t traceNum = nextTraceNum++;

    // --- walk the trace, executing on the architectural state ---
    TraceId actual;
    actual.startPc = startPc;
    unsigned branchIdx = 0;
    const unsigned lengthCap =
        std::min<unsigned>(guess.length ? guess.length : policy.maxLen,
                           policy.maxLen);

    const StaticInst *lastSi = nullptr; // the trace's last instruction
    InstSeqNum lastSeq = 0;
    bool truncated = false;

    while (actual.length < lengthCap) {
        const Addr pc = state_.pc();
        const StaticInst &si = program.fetch(pc);

        DynInst &d = slicer.open(pc, blocks);
        d.seq = nextSeq++;
        d.pc = pc;
        d.si = si;
        d.packetSeq = traceNum;
        d.packetSlot = static_cast<uint8_t>(actual.length);
        d.exec = executeMicro(state_, program.microAt(pc), &output_);
        ++actual.length;

        if (si.isCondBranch()) {
            const bool predTaken =
                branchIdx < guess.numBranches
                    ? ((guess.branchBits >> branchIdx) & 1) != 0
                    : si.imm < 0; // BTFN beyond known bits
            ++branchIdx;
            if (d.exec.taken && actual.numBranches < 64)
                actual.branchBits |= 1ull << actual.numBranches;
            ++actual.numBranches;
            if (predTaken != d.exec.taken) {
                d.mispredicted = true;
                truncated = true;
            }
        } else if (si.op == Opcode::JAL && si.rd == reg::ra) {
            ras.push(pc + kInstBytes); // call: remember return address
        } else if (si.isIndirectJump() && si.rd == reg::ra) {
            ras.push(pc + kInstBytes); // indirect call
        }

        const bool structuralEnd =
            endsTraceAfter(policy, si, d.exec.taken, pc, d.exec.nextPc);
        if (si.isHalt())
            haltWalked = true;

        lastSi = &si;
        lastSeq = d.seq;
        slicer.close(blocks);

        if (truncated || structuralEnd)
            break;
    }

    SLIP_ASSERT(lastSi, "walked an empty trace at pc 0x", std::hex,
                startPc);

    // --- update speculative history with the actual trace ---
    history.push(actual);
    pendingTrain.push_back() = PendingTrain{historyBefore, actual, lastSeq};

    if (truncated)
        ++statTraceMispredicts;

    if (haltWalked) {
        slicer.finish(blocks);
        return;
    }

    // --- validate the next fetch address (JALR target prediction) ---
    const Addr actualNext = state_.pc();
    if (lastSi->isIndirectJump() && !truncated) {
        std::optional<TraceId> next = predictor.predict(history);
        Addr predictedTarget = 0;
        if (next && next->valid()) {
            predictedTarget = next->startPc;
        } else if (lastSi->rs1 == reg::ra && lastSi->rd == reg::zero) {
            predictedTarget = ras.pop(); // return: use the RAS
        }
        if (predictedTarget != actualNext) {
            // The front end could not know the target: charge a
            // misprediction on the indirect jump itself.
            ++statIndirectMispredicts;
            // Patch the already-sliced last instruction.
            SLIP_ASSERT(!blocks.empty() && !blocks.back().insts.empty(),
                        "indirect jump block missing");
            blocks.back().insts.back().mispredicted = true;
        } else if (lastSi->rs1 == reg::ra && lastSi->rd == reg::zero &&
                   next && next->valid()) {
            // Predictor supplied the target; keep the RAS balanced.
            ras.pop();
        }
        cachedNextPred = next;
        cachedNextPredValid = true;
    }

    slicer.finish(blocks);
}

void
TraceFetchSource::trainPending(InstSeqNum seq)
{
    while (!pendingTrain.empty() && pendingTrain.front().lastSeq < seq)
        pendingTrain.pop_front(); // its last instruction was flushed
    if (!pendingTrain.empty() && pendingTrain.front().lastSeq == seq) {
        const PendingTrain &t = pendingTrain.front();
        predictor.update(t.history, t.actual);
        pendingTrain.pop_front();
    }
}

} // namespace slip
