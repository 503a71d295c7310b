/**
 * @file
 * Equivalence tests for rtunit::RingDeque, the RT unit's traversal
 * stack: seeded random streams of back pushes and pops at both ends
 * (DFS back-pops, BFS and steal-from-bottom front-pops) run against
 * std::deque, across growth with the live range wrapped around the
 * end of the buffer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "geom/rng.hpp"
#include "rtunit/ring_deque.hpp"

namespace {

using cooprt::geom::Pcg32;
using cooprt::rtunit::RingDeque;

void
expectSame(const RingDeque<std::uint32_t> &ring,
           const std::deque<std::uint32_t> &ref)
{
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ring[i], ref[i]) << "index " << i;
    if (!ref.empty()) {
        EXPECT_EQ(ring.front(), ref.front());
        EXPECT_EQ(ring.back(), ref.back());
    }
}

/** @p push_pct of the operations push; the rest pop at a random end. */
void
runStream(std::uint64_t seed, int ops, std::uint32_t push_pct)
{
    Pcg32 rng(seed);
    RingDeque<std::uint32_t> ring;
    std::deque<std::uint32_t> ref;
    for (int i = 0; i < ops; ++i) {
        const std::uint32_t op = rng.nextBelow(1000);
        if (op < 10 * push_pct || ref.empty()) {
            const std::uint32_t v = rng.nextU32();
            ring.push_back(v);
            ref.push_back(v);
        } else if (op == 999) {
            const std::size_t cap = ring.capacity();
            ring.clear();
            ref.clear();
            EXPECT_EQ(ring.capacity(), cap) << "clear keeps the buffer";
        } else if (op % 2 == 0) {
            EXPECT_EQ(ring.pop_back(), ref.back());
            ref.pop_back();
        } else {
            EXPECT_EQ(ring.pop_front(), ref.front());
            ref.pop_front();
        }
        expectSame(ring, ref);
    }
}

TEST(RingDeque, ShallowStreamMatchesDeque)
{
    // Push/pop balanced: a DFS-depth stack that churns its head
    // around the buffer many times without growing.
    for (std::uint64_t seed : {1u, 2u, 3u})
        runStream(seed, 20000, 50);
}

TEST(RingDeque, GrowingStreamMatchesDeque)
{
    // Push-biased: grows through several doublings while front pops
    // keep the live range wrapped past the end of the buffer.
    for (std::uint64_t seed : {4u, 5u})
        runStream(seed, 20000, 62);
}

TEST(RingDeque, GrowthUnrollsAWrappedRange)
{
    RingDeque<std::uint32_t> ring;
    std::deque<std::uint32_t> ref;
    for (std::uint32_t v = 0; v < 8; ++v) {
        ring.push_back(v);
        ref.push_back(v);
    }
    // Move the head forward, then refill so the range wraps.
    for (int i = 0; i < 5; ++i) {
        ring.pop_front();
        ref.pop_front();
    }
    for (std::uint32_t v = 8; v < 13; ++v) {
        ring.push_back(v);
        ref.push_back(v);
    }
    const std::size_t cap = ring.capacity();
    ring.push_back(13); // full and wrapped: grows here
    ref.push_back(13);
    EXPECT_GT(ring.capacity(), cap);
    expectSame(ring, ref);
}

} // namespace
