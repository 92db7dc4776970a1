/**
 * @file
 * Fixed-capacity ring buffer for per-cycle simulator queues.
 *
 * The run loop walks every queue every cycle, so the hot queues
 * (LSU entries and lines, L1 miss queue, L1-hit wakes, crossbar ports,
 * L2 input/replies/retries, DRAM queue/fills) must not pay
 * std::deque's chunked allocation on the push/pop steady state.
 * RingBuf stores its elements in one flat allocation sized once at
 * construction and never grows: the simulator's queues all have
 * config-derived occupancy bounds, and exceeding one is a modelling
 * bug, so push_back on a full buffer raises a SimError instead of
 * reallocating.
 *
 * Contract (see DESIGN.md §14.1): only what the simulator calls.
 *  - FIFO: push_back / pop_front / front / operator[] (oldest = 0) /
 *    eraseAt (order-preserving, for FR-FCFS picks).
 *  - clear / resize exist for a restore's length().
 *  - state() walks (u64 count, elements in FIFO order) —
 *    byte-identical to the std::deque loops it replaced, so
 *    pre-existing snapshot fingerprints are preserved.
 */

#ifndef CKESIM_SIM_RINGBUF_HPP
#define CKESIM_SIM_RINGBUF_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace ckesim {

/** Flat FIFO with a hard capacity fixed by reset()/construction. */
template <typename T>
class RingBuf
{
  public:
    /** Empty buffer with zero capacity; reset() before use. */
    RingBuf() = default;

    /** @param capacity maximum occupancy (>= 0). */
    explicit RingBuf(int capacity) { reset(capacity); }

    /** Drop all elements and (re)size the backing store. */
    void
    reset(int capacity)
    {
        SIM_CHECK(capacity >= 0, ringCtx(),
                  "ring buffer capacity " << capacity
                                          << " is negative");
        data_.clear();
        data_.resize(static_cast<std::size_t>(capacity));
        cap_ = static_cast<std::size_t>(capacity);
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }

    T &operator[](std::size_t i) { return data_[slot(i)]; }
    const T &operator[](std::size_t i) const { return data_[slot(i)]; }

    /** Append; raises SimError when full (growth refusal). */
    void
    push_back(const T &value)
    {
        SIM_CHECK(size_ < cap_, ringCtx(),
                  "push_back on full ring buffer (capacity "
                      << cap_
                      << "): fixed-capacity queues refuse to grow");
        data_[slot(size_)] = value;
        ++size_;
    }

    /** Drop the oldest element. @pre !empty(). */
    void
    pop_front()
    {
        SIM_CHECK(size_ > 0, ringCtx(), "pop_front on empty ring buffer");
        head_ = slot(1);
        --size_;
    }

    /**
     * Remove the element at logical index @p i, preserving the order
     * of the survivors (std::deque::erase semantics). Shifts the
     * front segment right, so erasing near the head — the FR-FCFS
     * window case — moves few elements.
     */
    void
    eraseAt(std::size_t i)
    {
        SIM_CHECK(i < size_, ringCtx(),
                  "eraseAt(" << i << ") past ring buffer size "
                             << size_);
        for (std::size_t j = i; j > 0; --j)
            data_[slot(j)] = std::move(data_[slot(j - 1)]);
        pop_front();
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** std::deque::resize: drop from the back, or append
     *  value-initialized elements (raises SimError when full). */
    void
    resize(std::size_t n)
    {
        if (size_ > n)
            size_ = n;
        while (size_ < n)
            push_back(T{});
    }

    // ---- checkpointing --------------------------------------------------
    /**
     * Checkpoint walk (sim/snapshot.hpp): (u64 count, elements
     * oldest-first), the byte layout of the std::deque loops this type
     * replaced. @p elem walks one element: (archive, element).
     */
    template <class Ar, ObjectOf<RingBuf> Self, class Elem>
    static void
    state(Ar &ar, Self &self, const Elem &elem)
    {
        ar.length(self, self.cap_);
        for (std::size_t i = 0; i < self.size_; ++i)
            elem(ar, self.data_[self.slot(i)]);
    }

  private:
    static SimCtx
    ringCtx()
    {
        SimCtx ctx;
        ctx.module = "ringbuf";
        return ctx;
    }

    std::size_t
    slot(std::size_t logical) const
    {
        std::size_t pos = head_ + logical;
        if (pos >= cap_)
            pos -= cap_;
        return pos;
    }

    std::vector<T> data_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SIM_RINGBUF_HPP
