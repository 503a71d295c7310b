/**
 * @file
 * Growable power-of-two ring buffer with push at the back and pops
 * at both ends: the RT unit's per-thread traversal stack.
 *
 * DFS pops the back (a stack), BFS and the steal-from-bottom
 * ablation pop the front (a queue), so the container needs
 * double-ended access like `std::deque`, but unlike `std::deque` it
 * keeps one contiguous buffer: `clear()` retains it, so recycling a
 * warp-buffer entry costs no allocation, and a stack only allocates
 * when it outgrows its deepest use so far.
 */

#ifndef COOPRT_RTUNIT_RING_DEQUE_HPP
#define COOPRT_RTUNIT_RING_DEQUE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cooprt::rtunit {

template <typename T>
class RingDeque
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    /** Element @p i counted from the front (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return buf_[(head_ + i) & mask_];
    }

    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    T
    pop_back()
    {
        assert(size_ > 0);
        --size_;
        return buf_[(head_ + size_) & mask_];
    }

    T
    pop_front()
    {
        assert(size_ > 0);
        const T v = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return v;
    }

    /** Drop every element; keeps the buffer. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    grow()
    {
        // Unroll the ring into a buffer twice the size, front first.
        std::vector<T> next(buf_.empty() ? 8 : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace cooprt::rtunit

#endif // COOPRT_RTUNIT_RING_DEQUE_HPP
