#include "uarch/core.hh"

#include <unordered_map>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/trace_session.hh"

namespace slip
{

/**
 * Reference model of store-to-load forwarding: per 8-byte word, the
 * completion cycle of the youngest store since the last flush, swept
 * of completed entries once it passes 2^16 words. The store queue is
 * checked against it.
 */
struct OoOCore::StoreShadow
{
    std::unordered_map<Addr, Cycle> youngest;

    void
    record(Addr firstWord, Addr lastWord, Cycle completeAt, Cycle now)
    {
        for (Addr k = firstWord; k <= lastWord; ++k)
            youngest[k] = completeAt;
        if (youngest.size() > (1u << 16)) {
            std::erase_if(youngest, [now](const auto &kv) {
                return kv.second <= now;
            });
        }
    }

    Cycle
    ready(Addr firstWord, Addr lastWord) const
    {
        Cycle r = 0;
        for (Addr k = firstWord; k <= lastWord; ++k) {
            auto it = youngest.find(k);
            if (it != youngest.end())
                r = std::max(r, it->second);
        }
        return r;
    }
};

std::unique_ptr<OoOCore::StoreShadow>
OoOCore::makeStoreShadow()
{
    // Latched here and at every flush, when both structures are empty,
    // so the map never misses a store the queue holds.
    return SLIP_INVARIANTS_ACTIVE() ? std::make_unique<StoreShadow>()
                                    : nullptr;
}

OoOCore::OoOCore(const CoreParams &params, FetchSource &source)
    : params_(params), source(source),
      icache_([&] {
          CacheParams c = params.icache;
          c.name = params.name + ".icache";
          return c;
      }()),
      dcache_([&] {
          CacheParams c = params.dcache;
          c.name = params.name + ".dcache";
          return c;
      }()),
      window(params.robSize + params.fetchBufferCap + params.fetchWidth),
      storeQueue(params.robSize),
      storeShadow(makeStoreShadow()),
      slotsUsed(kRingSize, 0), slotsTag(kRingSize, ~Cycle(0)),
      stats_(params.name)
{
    stats_.link("retired", retired);
    stats_.link("retired_cond_branches", numRetiredCondBranches);
    stats_.link("branch_mispredicts", numBranchMispredicts);
    stats_.link("dispatched", numDispatched);
    stats_.link("fetched", numFetched);
    stats_.link("fetch_only_removed", numFetchOnlyRemoved);
    stats_.link("flushes", numFlushes);
}

OoOCore::~OoOCore() = default;

Cycle
OoOCore::execLatency(const StaticInst &si) const
{
    switch (si.opClass()) {
      case OpClass::IntAlu:
        return 1;
      case OpClass::IntMult:
        return params_.intMultLat;
      case OpClass::IntDiv:
        return params_.intDivLat;
      case OpClass::Load:
        return 1; // address generation; cache access added separately
      case OpClass::Store:
        return 1; // address generation
      case OpClass::Branch:
      case OpClass::Jump:
      case OpClass::Syscall:
        return 1;
    }
    return 1;
}

Cycle
OoOCore::claimIssueSlot(Cycle earliest)
{
    Cycle c = earliest;
    while (true) {
        const size_t idx = static_cast<size_t>(c) & (kRingSize - 1);
        if (slotsTag[idx] != c) {
            slotsTag[idx] = c;
            slotsUsed[idx] = 0;
        }
        if (slotsUsed[idx] < params_.issueWidth) {
            ++slotsUsed[idx];
            return c;
        }
        ++c;
    }
}

void
OoOCore::tick(Cycle now)
{
    if (halted_)
        return;
    const bool checking = SLIP_INVARIANTS_ACTIVE();
    doRetire(now, checking);
    doDispatch(now);
    doFetch(now);
    if (checking) {
        SLIP_INVARIANT(dispatched <= params_.robSize, params_.name,
                       ": ROB holds ", dispatched, " > ", params_.robSize);
        SLIP_INVARIANT(fetchBufferSize() <= params_.fetchBufferCap,
                       params_.name, ": fetch buffer holds ",
                       fetchBufferSize(), " > ", params_.fetchBufferCap);
        SLIP_INVARIANT(storeQueue.size() <= dispatched, params_.name,
                       ": ", storeQueue.size(), " queued stores in a ROB of ",
                       dispatched);
    }
    // Coarse per-core throughput samples; the core tag (first byte of
    // the stats name, 'a'/'r'/'c') rides in arg1 to keep the tracks
    // apart without a per-core name table.
    if ((now & 4095) == 0 && SLIP_TRACE_ACTIVE(obs::Category::Core)) {
        [[maybe_unused]] const uint64_t tag =
            params_.name.empty()
                ? '?'
                : static_cast<unsigned char>(params_.name[0]);
        SLIP_TRACE(obs::Category::Core, obs::Name::CoreRetired,
                   obs::Phase::Counter, retired, tag);
        SLIP_TRACE(obs::Category::Core, obs::Name::CoreFetched,
                   obs::Phase::Counter, numFetched, tag);
    }
}

void
OoOCore::doRetire(Cycle now, bool checking)
{
    unsigned count = 0;
    while (count < params_.retireWidth && dispatched > 0 &&
           window.front().at <= now) {
        const DynInst &d = window.front().d;
        if (onRetire && !onRetire(d, now))
            break; // back-pressure: retry next cycle
        if (checking) {
            SLIP_INVARIANT(d.seq > lastRetiredSeq, params_.name,
                           ": retired seq ", d.seq, " after ",
                           lastRetiredSeq);
            SLIP_INVARIANT(!d.si.isStore() ||
                               (!storeQueue.empty() &&
                                storeQueue.front().seq == d.seq),
                           params_.name, ": retiring store ", d.seq,
                           " is not the store-queue head");
        }
        lastRetiredSeq = d.seq;
        ++retired;
        lastRetire = now;
        if (d.si.isCondBranch())
            ++numRetiredCondBranches;
        if (d.mispredicted)
            ++numBranchMispredicts;
        if (d.si.isHalt())
            halted_ = true;
        if (d.si.isStore())
            storeQueue.pop_front();
        window.pop_front();
        --dispatched;
        ++count;
        if (halted_)
            return;
    }
}

Cycle
OoOCore::storeForwardReady(Addr firstWord, Addr lastWord) const
{
    // Youngest to oldest; the first store covering a word is the one
    // its bytes forward from. Accesses are at most 8 bytes, so at most
    // two words: bit i of `open` is word firstWord + i, unresolved.
    SLIP_ASSERT(lastWord - firstWord <= 1, "access spans ",
                lastWord - firstWord + 1, " words");
    unsigned open = lastWord == firstWord ? 1u : 3u;
    Cycle ready = 0;
    for (size_t i = storeQueue.size(); i-- > 0 && open;) {
        const StoreEntry &s = storeQueue[i];
        for (unsigned w = 0; w < 2; ++w) {
            const Addr word = firstWord + w;
            if ((open >> w & 1) && s.firstWord <= word &&
                word <= s.lastWord) {
                ready = std::max(ready, s.completeAt);
                open &= ~(1u << w);
            }
        }
    }
    return ready;
}

void
OoOCore::doDispatch(Cycle now)
{
    unsigned count = 0;
    while (count < params_.dispatchWidth && dispatched < window.size() &&
           window[dispatched].at <= now && dispatched < params_.robSize) {
        WindowEntry &e = window[dispatched];
        const DynInst &d = e.d;
        ++count;
        ++numDispatched;

        // The 8-byte words a load or store touches.
        const Addr firstWord = d.exec.memAddr >> 3;
        const Addr lastWord = (d.exec.memAddr + d.exec.memBytes - 1) >> 3;

        // Operand readiness through the register scoreboard (skipped
        // entirely when the delay buffer supplies source values).
        Cycle depReady = now;
        if (!d.valuePredicted) {
            RegIndex srcs[2];
            d.si.srcRegs(srcs);
            for (RegIndex s : srcs) {
                if (s != kNoReg && s != kZeroReg)
                    depReady = std::max(depReady, regReady[s]);
            }
            if (d.si.isLoad()) {
                // Perfect disambiguation + store-to-load forwarding:
                // wait for the youngest earlier store to these bytes.
                const Cycle fwd = storeForwardReady(firstWord, lastWord);
                if (storeShadow) {
                    [[maybe_unused]] const Cycle mapReady = std::max(
                        now, storeShadow->ready(firstWord, lastWord));
                    SLIP_INVARIANT(std::max(now, fwd) == mapReady,
                                   params_.name, ": store queue says load ",
                                   d.seq, " is ready at ",
                                   std::max(now, fwd),
                                   ", the per-word map says ", mapReady);
                }
                depReady = std::max(depReady, fwd);
            }
        }

        const Cycle issueAt = claimIssueSlot(std::max(depReady, now + 1));
        Cycle completeAt = issueAt + execLatency(d.si);

        if (d.si.isLoad()) {
            completeAt += dcache_.access(d.exec.memAddr);
        } else if (d.si.isStore()) {
            // Charge the access for cache state/bandwidth statistics;
            // forwarding makes the data available at address
            // generation, so dependents do not wait for the write.
            dcache_.access(d.exec.memAddr);
            storeQueue.emplace_back(
                StoreEntry{firstWord, lastWord, completeAt, d.seq});
            if (storeShadow)
                storeShadow->record(firstWord, lastWord, completeAt, now);
        }

        if (d.exec.wroteReg)
            regReady[d.exec.destReg] = completeAt;

        if (d.mispredicted) {
            // The branch resolves at completion; fetch restarts on the
            // corrected path after the redirect penalty.
            fetchResumeAt =
                std::max(fetchResumeAt, completeAt + params_.redirectPenalty);
            if (fetchBlockedOnBranch && blockedBranchSeq == d.seq)
                fetchBlockedOnBranch = false;
        }

        e.at = completeAt; // now a ROB entry
        ++dispatched;
    }
}

void
OoOCore::doFetch(Cycle now)
{
    if (halted_ || fetchBlockedOnBranch || now < fetchResumeAt)
        return;
    if (fetchBufferSize() + params_.fetchWidth > params_.fetchBufferCap)
        return;

    FetchBlock &block = fetchBlock;
    block.insts.clear(); // a source may append to what it is handed
    if (!source.nextBlock(block))
        return;
    if (block.insts.empty())
        return;

    SLIP_ASSERT(block.insts.size() <= params_.fetchWidth,
                "fetch block of ", block.insts.size(),
                " exceeds fetch width ", params_.fetchWidth);

    // I-cache: charge every line the block touches; the block is
    // delivered after the slowest access (2-way interleaving fetches
    // a full block across a line boundary in one attempt).
    const unsigned lineBytes = icache_.params().lineBytes;
    const Addr firstLine = block.startAddr / lineBytes;
    const Addr lastLine =
        (block.startAddr + (block.insts.size() - 1) * kInstBytes) /
        lineBytes;
    Cycle latency = 0;
    for (Addr line = firstLine; line <= lastLine; ++line)
        latency = std::max(latency, icache_.access(line * lineBytes));
    const Cycle extra = latency > icache_.params().hitLatency
                            ? latency - icache_.params().hitLatency
                            : 0;
    if (extra > 0) {
        // A miss occupies the fetch unit until the line arrives.
        fetchResumeAt = std::max(fetchResumeAt, now + extra);
    }

    const Cycle readyAt = now + params_.fetchToDispatch + extra;
    for (const DynInst &d : block.insts) {
        ++numFetched;
        if (d.fetchOnly) {
            // Removed by the ir-vec between fetch and decode: consumes
            // fetch bandwidth only.
            ++numFetchOnlyRemoved;
            continue;
        }
        if (d.mispredicted) {
            // Sources must end a block at a mispredicted control
            // instruction: what follows is the corrected path, which
            // the front end cannot see until the branch resolves.
            SLIP_ASSERT(&d == &block.insts.back(),
                        "mispredicted instruction not last in block");
            fetchBlockedOnBranch = true;
            blockedBranchSeq = d.seq;
        }
        window.emplace_back(d, readyAt);
    }
}

void
OoOCore::flush(Cycle now, Cycle resumeFetchAt)
{
    SLIP_TRACE(obs::Category::Core, obs::Name::CoreFlush,
               obs::Phase::Instant, window.size(),
               params_.name.empty()
                   ? '?'
                   : static_cast<unsigned char>(params_.name[0]));
    window.clear();
    dispatched = 0;
    regReady.fill(now);
    storeQueue.clear();
    storeShadow = makeStoreShadow();
    lastRetiredSeq = 0;
    fetchBlockedOnBranch = false;
    fetchResumeAt = resumeFetchAt;
    // A flush is a full restart: an A-stream that speculatively walked
    // (and retired) a wrong-path HALT must resume after recovery.
    halted_ = false;
    ++numFlushes;
}

} // namespace slip
