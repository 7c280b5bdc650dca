/**
 * @file
 * FIFO rings for per-instruction pipeline queues.
 *
 * FixedRing: storage is allocated once, at construction, rounded up
 * to a power of two so an index is one mask; push and pop never
 * allocate. Popped slots are not destroyed, only overwritten by a
 * later push, so the element type must be trivially destructible.
 *
 * RecycleRing: for queues whose depth the owner cannot bound, and
 * whose elements own storage (vectors) worth keeping. It doubles when
 * full, so it allocates only while warming up; a popped element is
 * kept as it is and handed back, storage and stale contents included,
 * by a later push_back().
 */

#ifndef SLIPSTREAM_COMMON_RING_HH
#define SLIPSTREAM_COMMON_RING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace slip
{

template <typename T>
class FixedRing
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "FixedRing never destroys popped elements");

  public:
    /** Room for at least `minCapacity` elements. */
    explicit FixedRing(size_t minCapacity)
        : slots(std::bit_ceil(std::max<size_t>(minCapacity, 1))),
          mask(slots.size() - 1)
    {}

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** The i-th oldest element (0 = front). */
    T &operator[](size_t i) { return slots[(head + i) & mask]; }
    const T &operator[](size_t i) const { return slots[(head + i) & mask]; }

    T &front() { return (*this)[0]; }

    /** Construct a new youngest element in place. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        SLIP_ASSERT(count < slots.size(), "ring of ", slots.size(),
                    " overflowed");
        T *slot = &slots[(head + count) & mask];
        std::construct_at(slot, std::forward<Args>(args)...);
        ++count;
        return *slot;
    }

    void
    pop_front()
    {
        SLIP_ASSERT(count > 0, "pop from an empty ring");
        head = (head + 1) & mask;
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    std::vector<T> slots;
    size_t mask;
    size_t head = 0;
    size_t count = 0;
};

template <typename T>
class RecycleRing
{
  public:
    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** The i-th oldest element (0 = front). */
    T &operator[](size_t i) { return slots[(head + i) & mask]; }
    const T &operator[](size_t i) const { return slots[(head + i) & mask]; }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }

    /**
     * Append a slot and return it. The slot is a recycled element:
     * the caller overwrites what it uses, reusing its storage.
     */
    T &
    push_back()
    {
        if (count == slots.size())
            grow();
        ++count;
        return back();
    }

    /**
     * Drop the front element. An emptied ring restarts at slot 0, so
     * a queue drained between bursts reuses its most recent slots.
     */
    void
    pop_front()
    {
        SLIP_ASSERT(count > 0, "pop from an empty ring");
        head = --count == 0 ? 0 : (head + 1) & mask;
    }

    /** Drop every element; their storage stays for reuse. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(std::max<size_t>(2 * slots.size(), 4));
        for (size_t i = 0; i < slots.size(); ++i)
            bigger[i] = std::move((*this)[i]);
        slots.swap(bigger);
        mask = slots.size() - 1;
        head = 0;
    }

    std::vector<T> slots;
    size_t mask = 0;
    size_t head = 0;
    size_t count = 0;
};

} // namespace slip

#endif // SLIPSTREAM_COMMON_RING_HH
