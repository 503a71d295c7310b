/**
 * @file
 * Tests for the cache timing model.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace {

using cooprt::mem::Cache;
using cooprt::mem::CacheConfig;

/** Downstream stub: fixed extra latency, counts fetches. */
struct Backing
{
    std::uint64_t latency = 100;
    std::uint64_t fetches = 0;

    std::uint64_t
    operator()(std::uint64_t /*line*/, std::uint64_t now)
    {
        fetches++;
        return now + latency;
    }
};

CacheConfig
smallCfg(std::uint32_t assoc)
{
    CacheConfig c;
    c.size_bytes = 4 * 128;  // 4 lines
    c.assoc = assoc;
    c.line_bytes = 128;
    c.latency = 10;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCfg(0));
    Backing mem;
    std::uint64_t r1 = c.access(7, 0, std::ref(mem));
    EXPECT_EQ(r1, 110u); // 10 (L1) + 100 (below)
    EXPECT_EQ(mem.fetches, 1u);

    std::uint64_t r2 = c.access(7, 200, std::ref(mem));
    EXPECT_EQ(r2, 210u); // hit
    EXPECT_EQ(mem.fetches, 1u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, MshrMergesInFlightMisses)
{
    Cache c(smallCfg(0));
    Backing mem;
    std::uint64_t r1 = c.access(7, 0, std::ref(mem));
    // Second access to the same line while the fill is in flight.
    std::uint64_t r2 = c.access(7, 5, std::ref(mem));
    EXPECT_EQ(r2, r1);          // waits for the same fill
    EXPECT_EQ(mem.fetches, 1u); // no duplicate traffic
    EXPECT_EQ(c.stats().mshr_merges, 1u);
}

TEST(Cache, AccessAfterFillCompletesIsHit)
{
    Cache c(smallCfg(0));
    Backing mem;
    std::uint64_t r1 = c.access(7, 0, std::ref(mem));
    std::uint64_t r2 = c.access(7, r1 + 1, std::ref(mem));
    EXPECT_EQ(r2, r1 + 1 + 10);
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, LruEvictionFullyAssociative)
{
    Cache c(smallCfg(0)); // 4 lines
    Backing mem;
    for (std::uint64_t l = 0; l < 4; ++l)
        c.access(l, 1000 * l, std::ref(mem));
    // Touch line 0 to make it MRU, then insert line 4: line 1 evicts.
    c.access(0, 5000, std::ref(mem));
    c.access(4, 6000, std::ref(mem));
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1));
    EXPECT_TRUE(c.contains(2));
    EXPECT_TRUE(c.contains(4));
}

TEST(Cache, SetAssociativeMapsBySet)
{
    // 4 lines, 2-way => 2 sets; even lines -> set 0, odd -> set 1.
    Cache c(smallCfg(2));
    Backing mem;
    c.access(0, 0, std::ref(mem));
    c.access(2, 100, std::ref(mem));
    c.access(4, 200, std::ref(mem)); // evicts line 0 (set 0 LRU)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(2));
    EXPECT_TRUE(c.contains(4));
    // Odd set untouched.
    c.access(1, 300, std::ref(mem));
    EXPECT_TRUE(c.contains(1));
}

TEST(Cache, ConflictMissesInSetAssociative)
{
    Cache c(smallCfg(2)); // 2 sets x 2 ways
    Backing mem;
    // Three lines in the same set thrash a 2-way set.
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t l : {0ull, 2ull, 4ull})
            c.access(l, 10000u * rep + l, std::ref(mem));
    EXPECT_EQ(c.stats().hits, 0u);
    EXPECT_EQ(c.stats().misses, 9u);
}

TEST(Cache, FullyAssocNoConflictMisses)
{
    Cache c(smallCfg(0)); // 4 lines fully assoc
    Backing mem;
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t l : {0ull, 2ull, 4ull})
            c.access(l, 10000u * rep + l, std::ref(mem));
    // After the cold pass, everything fits: 3 cold misses, 6 hits.
    EXPECT_EQ(c.stats().misses, 3u);
    EXPECT_EQ(c.stats().hits, 6u);
}

TEST(Cache, MissRateCombinesMergedMisses)
{
    Cache c(smallCfg(0));
    Backing mem;
    c.access(9, 0, std::ref(mem));
    c.access(9, 1, std::ref(mem)); // merged
    c.access(9, 500, std::ref(mem)); // hit
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 2.0 / 3.0);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache c(smallCfg(0));
    Backing mem;
    c.access(3, 0, std::ref(mem));
    c.reset();
    EXPECT_FALSE(c.contains(3));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, Table1Configurations)
{
    // L1: 64 KB fully associative -> 512 lines of 128 B.
    Cache l1(CacheConfig{64 * 1024, 0, 128, 20});
    Backing mem;
    for (std::uint64_t l = 0; l < 512; ++l)
        l1.access(l, l, std::ref(mem));
    for (std::uint64_t l = 0; l < 512; ++l)
        l1.access(l, 100000 + l, std::ref(mem));
    EXPECT_EQ(l1.stats().misses, 512u);
    EXPECT_EQ(l1.stats().hits, 512u); // all resident

    // One more distinct line evicts exactly one.
    l1.access(1000, 200000, std::ref(mem));
    EXPECT_FALSE(l1.contains(0));
    EXPECT_TRUE(l1.contains(1));
}

TEST(Cache, OutstandingLinesSortedSnapshot)
{
    // Issue misses in scrambled line order: the MSHR table is
    // hash-ordered, but the snapshot the rest of the simulator is
    // allowed to see must come back sorted by line address.
    Cache c(smallCfg(0));
    Backing mem;
    const std::uint64_t lines[] = {9, 2, 17, 5, 33, 1};
    std::uint64_t now = 0;
    for (std::uint64_t l : lines)
        c.access(l, now++, std::ref(mem)); // all in flight

    const auto snap = c.outstandingLines();
    ASSERT_EQ(snap.size(), 6u);
    EXPECT_EQ(c.mshrLive(), 6u);
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_LT(snap[i - 1].line, snap[i].line);
    EXPECT_EQ(snap.front().line, 1u);
    EXPECT_EQ(snap.back().line, 33u);
    for (const auto &e : snap) {
        EXPECT_GT(e.ready, now); // fills still outstanding
        EXPECT_NE(e.sectors, 0u);
    }
}

} // namespace
