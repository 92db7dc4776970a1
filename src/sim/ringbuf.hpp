/**
 * @file
 * Fixed-capacity ring buffer for per-cycle simulator queues.
 *
 * The run loop walks every queue every cycle, so the hot queues
 * (LSU, L1 miss queue, crossbar ports, L2 input/replies, DRAM
 * queue/fills) must not pay std::deque's chunked allocation on the
 * push/pop steady state. RingBuf stores its elements in one flat
 * allocation sized once at construction and never grows: the
 * simulator's queues all have config-derived occupancy bounds, and
 * exceeding one is a modelling bug, so push_back on a full buffer
 * raises a SimError instead of reallocating.
 *
 * Contract (see DESIGN.md §14):
 *  - FIFO deque subset: push_back / pop_front / front / back /
 *    operator[] / eraseAt (order-preserving, for FR-FCFS picks).
 *  - Iteration visits elements oldest-first, exactly like std::deque.
 *  - state() walks (u64 count, elements in FIFO order) —
 *    byte-identical to the std::deque loops it replaced, so
 *    pre-existing snapshot fingerprints are preserved.
 */

#ifndef CKESIM_SIM_RINGBUF_HPP
#define CKESIM_SIM_RINGBUF_HPP

#include <cstddef>
#include <cstdint>
#include <iterator>
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
        SimCtx ctx;
        ctx.module = "ringbuf";
        SIM_CHECK(capacity >= 0, ctx,
                  "ring buffer capacity " << capacity
                                          << " is negative");
        data_.clear();
        data_.resize(static_cast<std::size_t>(capacity));
        cap_ = static_cast<std::size_t>(capacity);
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    std::size_t size() const { return size_; }
    int capacity() const { return static_cast<int>(cap_); }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }
    T &back() { return data_[slot(size_ - 1)]; }
    const T &back() const { return data_[slot(size_ - 1)]; }

    T &operator[](std::size_t i) { return data_[slot(i)]; }
    const T &operator[](std::size_t i) const { return data_[slot(i)]; }

    /** Append; raises SimError when full (growth refusal). */
    void
    push_back(const T &value)
    {
        checkRoom();
        data_[slot(size_)] = value;
        ++size_;
    }

    /** Append (move); raises SimError when full (growth refusal). */
    void
    push_back(T &&value)
    {
        checkRoom();
        data_[slot(size_)] = std::move(value);
        ++size_;
    }

    /** Drop the oldest element. @pre !empty(). */
    void
    pop_front()
    {
        SimCtx ctx;
        ctx.module = "ringbuf";
        SIM_CHECK(size_ > 0, ctx, "pop_front on empty ring buffer");
        data_[head_] = T{}; // release held resources promptly
        head_ = next(head_);
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
        SimCtx ctx;
        ctx.module = "ringbuf";
        SIM_CHECK(i < size_, ctx,
                  "eraseAt(" << i << ") past ring buffer size "
                             << size_);
        for (std::size_t j = i; j > 0; --j)
            data_[slot(j)] = std::move(data_[slot(j - 1)]);
        pop_front();
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            data_[slot(i)] = T{};
        head_ = 0;
        size_ = 0;
    }

    /** std::deque::resize: drop from the back, or append
     *  value-initialized elements (raises SimError when full). */
    void
    resize(std::size_t n)
    {
        while (size_ > n) {
            data_[slot(size_ - 1)] = T{};
            --size_;
        }
        while (size_ < n)
            push_back(T{});
    }

    /** Forward iterator over logical (oldest-first) order. */
    template <bool Const>
    class Iter
    {
      public:
        using Ring = std::conditional_t<Const, const RingBuf, RingBuf>;
        using value_type = T;
        using reference = std::conditional_t<Const, const T &, T &>;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        Iter() = default;
        Iter(Ring *ring, std::size_t pos) : ring_(ring), pos_(pos) {}

        reference operator*() const { return (*ring_)[pos_]; }
        pointer operator->() const { return &(*ring_)[pos_]; }
        Iter &operator++()
        {
            ++pos_;
            return *this;
        }
        Iter operator++(int)
        {
            Iter tmp = *this;
            ++pos_;
            return tmp;
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

      private:
        Ring *ring_ = nullptr;
        std::size_t pos_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

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
    std::size_t
    slot(std::size_t logical) const
    {
        std::size_t pos = head_ + logical;
        if (pos >= cap_)
            pos -= cap_;
        return pos;
    }

    std::size_t
    next(std::size_t pos) const
    {
        ++pos;
        return pos == cap_ ? 0 : pos;
    }

    void
    checkRoom() const
    {
        SimCtx ctx;
        ctx.module = "ringbuf";
        SIM_CHECK(size_ < cap_, ctx,
                  "push_back on full ring buffer (capacity "
                      << cap_
                      << "): fixed-capacity queues refuse to grow");
    }

    std::vector<T> data_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SIM_RINGBUF_HPP
