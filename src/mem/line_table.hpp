/**
 * @file
 * Open-addressed hash table keyed by cache-line number.
 *
 * The cache model's two lookup structures — the line -> tag-slot
 * index and the MSHR table — are hot enough that node-based
 * `std::unordered_map` allocation and pointer chasing dominated host
 * time. This table stores its entries inline in one power-of-two
 * array with linear probing, erases by backward shift (no
 * tombstones, so probe chains never degrade), and only allocates
 * when it grows past half full.
 *
 * Iteration order is the slot order, i.e. a function of the hash and
 * the insertion history: like hash order it is not part of the
 * simulator's deterministic surface, so callers that emit or compare
 * entries sort first (see Cache::outstandingLines).
 */

#ifndef COOPRT_MEM_LINE_TABLE_HPP
#define COOPRT_MEM_LINE_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cooprt::mem {

template <typename V>
class LineTable
{
  public:
    /** Reserved key marking an empty slot; never a valid line. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t(0);

    /** Sized so @p expected entries fit without growing. */
    explicit LineTable(std::size_t expected = 8) { rehash(expected); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /** The value stored for @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<LineTable *>(this)->find(key);
    }

    /** The value for @p key, value-initialized when absent. */
    V &
    operator[](std::uint64_t key)
    {
        assert(key != kEmptyKey);
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(key);
        for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return slots_[i].value;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key; false when it was absent. */
    bool
    erase(std::uint64_t key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key) {
                eraseAt(i);
                return true;
            }
            if (slots_[i].key == kEmptyKey)
                return false;
        }
    }

    /** Remove every entry for which `pred(key, value)` holds. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        // A backward shift only moves entries into the hole at i
        // from later in the probe run, or (across the wrap) entries
        // the scan has already kept; re-testing slot i after each
        // erase therefore visits every entry at least once.
        for (std::size_t i = 0; i < slots_.size();) {
            Slot &s = slots_[i];
            if (s.key != kEmptyKey && pred(s.key, s.value))
                eraseAt(i);
            else
                ++i;
        }
    }

    /** Visit every entry as `fn(key, value)`, in slot order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    /** Drop every entry; keeps the capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: consecutive line numbers spread over
        // the whole table.
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    eraseAt(std::size_t hole)
    {
        // Backward-shift deletion: pull later members of the probe
        // run into the hole unless that would move one before its
        // home slot.
        for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
            if (slots_[j].key == kEmptyKey)
                break;
            const std::size_t h = home(slots_[j].key);
            // Movable when h is cyclically outside (hole, j].
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        --size_;
    }

    void
    rehash(std::size_t expected)
    {
        const std::size_t cap =
            std::bit_ceil(std::max<std::size_t>(2 * expected, 8));
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64 - std::countr_zero(cap);
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey)
                (*this)[s.key] = s.value;
    }

    void grow() { rehash(slots_.size()); }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;
};

} // namespace cooprt::mem

#endif // COOPRT_MEM_LINE_TABLE_HPP
