/**
 * Allocation budget of the per-instruction simulation path.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, then runs whole programs on the SS and slipstream models
 * and bounds the heap allocations per 1000 retired instructions. The
 * A-stream -> delay buffer -> R-stream -> IR-detector path and the
 * fetch path recycle their storage, so what remains is setup, one
 * slot vector per packet, and the structures DESIGN.md §6 lists as
 * still allocating; a container that starts allocating per
 * instruction or per block again exceeds the budget several times
 * over.
 *
 * Sanitizer runtimes install their own operator new; replacing it
 * there would bypass their bookkeeping, so sanitizer builds compile
 * the counter out and skip the budget tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "assembler/assembler.hh"
#include "common/invariant.hh"
#include "harness/experiment.hh"
#include "slipstream/ir_predictor.hh"
#include "workloads/workloads.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SLIP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
#define SLIP_ALLOC_COUNTING 0
#endif
#endif
#ifndef SLIP_ALLOC_COUNTING
#define SLIP_ALLOC_COUNTING 1
#endif

namespace
{
std::atomic<uint64_t> gAllocations{0};
} // namespace

#if SLIP_ALLOC_COUNTING

namespace
{

void *
countedAlloc(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes ? bytes : 1);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(a, (bytes + a - 1) / a * a);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return ::operator new(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return ::operator new(bytes, align);
}

// GCC pairs free() with the operator new it can see and warns on the
// sized/aligned deletes; every allocation above comes from malloc or
// aligned_alloc, so free() is right for all of them.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // SLIP_ALLOC_COUNTING

namespace slip
{
namespace
{

/**
 * Budgets in allocations per 1000 retired instructions, at `test`
 * size, including each run's setup (predictor tables, caches, stats).
 * Measured at 0.6-1.6 (SS) and 189-355 (CMP) plain, and 0.9-13.7 and
 * 189-381 with invariant checkers on (their reference maps allocate
 * per new store address). Before the fetch and slipstream paths
 * recycled their storage: 194-238 (SS) and 2063-2269 (CMP).
 */
struct Budget
{
    double ss;
    double cmp;
};
constexpr Budget kPlainBudget{2.5, 390};
constexpr Budget kCheckedBudget{16, 420};

const char *const kPrograms[] = {"compress", "m88ksim"};

struct Measured
{
    uint64_t allocations;
    uint64_t retired;

    double
    perKilo() const
    {
        return 1000.0 * double(allocations) / double(retired);
    }
};

/** Allocations made by `run`, which returns the retired count. */
template <typename Run>
Measured
measure(Run &&run)
{
    const uint64_t before = gAllocations.load();
    const uint64_t retired = run();
    return {gAllocations.load() - before, retired};
}

class AllocBudget : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!SLIP_ALLOC_COUNTING)
            GTEST_SKIP() << "sanitizer build: its runtime owns operator "
                            "new, so allocations are not counted";
    }
};

TEST_F(AllocBudget, CounterSeesAllocations)
{
    const Measured m = measure([] {
        auto *p = new std::vector<int>(100);
        delete p;
        return uint64_t(1);
    });
    EXPECT_EQ(m.allocations, 2u); // the vector object and its storage
}

TEST_F(AllocBudget, PerInstructionPathStaysWithinBudget)
{
    const Budget budget =
        SLIP_INVARIANTS_ACTIVE() ? kCheckedBudget : kPlainBudget;
    for (const char *name : kPrograms) {
        const Program program =
            assemble(getWorkload(name, WorkloadSize::Test).source);
        const std::string golden = goldenOutput(program);

        // Warm-up: first-use statics (stat names, policy tables).
        runSlipstream(program, cmp2x64x4Params(), golden);

        const Measured ss = measure([&] {
            const RunMetrics m =
                runSS(program, ss64x4Params(), "SS(64x4)", golden);
            EXPECT_TRUE(m.outputCorrect) << name;
            return m.retired;
        });
        std::cout << "[ alloc    ] " << name << " SS(64x4): "
                  << ss.perKilo() << " per 1000 retired\n";
        EXPECT_LE(ss.perKilo(), budget.ss) << name;

        for (unsigned k = 0; k < kNumAStreamPolicies; ++k) {
            SlipstreamParams params = cmp2x64x4Params();
            params.aPolicy.kind = static_cast<AStreamPolicyKind>(k);
            const Measured cmp = measure([&] {
                const RunMetrics m =
                    runSlipstream(program, params, golden);
                EXPECT_TRUE(m.outputCorrect) << name;
                return m.retired;
            });
            std::cout << "[ alloc    ] " << name << " CMP "
                      << aStreamPolicyName(params.aPolicy.kind) << ": "
                      << cmp.perKilo() << " per 1000 retired\n";
            EXPECT_LE(cmp.perKilo(), budget.cmp)
                << name << " " << aStreamPolicyName(params.aPolicy.kind);
        }
    }
}

TEST(AllocBudgetLayout, IRPredictorEntryStaysPacked)
{
    // 2^16 entries per predictor: every byte here is 64 KB of RSS.
    EXPECT_LE(sizeof(IRPredictor::Entry), 56u);
}

} // namespace
} // namespace slip
