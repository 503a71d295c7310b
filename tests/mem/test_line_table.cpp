/**
 * @file
 * Equivalence tests for mem::LineTable, the open-addressed table
 * behind the cache's line index and MSHR table: seeded random
 * operation streams (insert, backward-shift erase, compaction by
 * predicate, growth, clear) run against std::unordered_map, and the
 * two must agree after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/rng.hpp"
#include "mem/line_table.hpp"

namespace {

using cooprt::geom::Pcg32;
using cooprt::mem::LineTable;

using Ref = std::unordered_map<std::uint64_t, std::uint64_t>;

std::vector<std::pair<std::uint64_t, std::uint64_t>>
sortedEntries(const LineTable<std::uint64_t> &t)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    t.forEach([&](std::uint64_t k, std::uint64_t v) {
        out.emplace_back(k, v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
sortedEntries(const Ref &model)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out(
        model.begin(), model.end());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Drive @p ops random operations over keys drawn by @p key against
 * both containers, comparing lookups on every step and full contents
 * periodically.
 */
template <typename KeyFn>
void
runStream(std::uint64_t seed, int ops, KeyFn key)
{
    Pcg32 rng(seed);
    LineTable<std::uint64_t> table(4); // small: force growth
    Ref model;
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t k = key(rng);
        const std::uint32_t op = rng.nextBelow(100);
        if (op < 45) {
            const std::uint64_t v = rng.nextU32();
            table[k] = v;
            model[k] = v;
        } else if (op < 55) {
            // operator[] on an absent key value-initializes.
            const std::uint64_t got = table[k];
            EXPECT_EQ(got, model[k]);
        } else if (op < 85) {
            EXPECT_EQ(table.erase(k), model.erase(k) == 1);
        } else if (op < 99) {
            const std::uint64_t *v = table.find(k);
            const auto it = model.find(k);
            ASSERT_EQ(v != nullptr, it != model.end()) << "key " << k;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second);
            }
        } else {
            // Compaction: drop every entry below a random threshold.
            const std::uint64_t cut = rng.nextU32();
            table.eraseIf([cut](std::uint64_t, std::uint64_t v) {
                return v < cut;
            });
            std::erase_if(model, [cut](const auto &kv) {
                return kv.second < cut;
            });
        }
        ASSERT_EQ(table.size(), model.size()) << "after op " << i;
        ASSERT_LE(2 * table.size(), table.capacity());
        if (i % 257 == 0) {
            ASSERT_EQ(sortedEntries(table), sortedEntries(model));
        }
    }
    EXPECT_EQ(sortedEntries(table), sortedEntries(model));
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(key(rng)), nullptr);
}

TEST(LineTable, DenseKeysMatchUnorderedMap)
{
    // Few distinct keys: long-lived entries, many erase/re-insert
    // cycles through the same probe runs.
    for (std::uint64_t seed : {1u, 2u, 3u})
        runStream(seed, 20000, [](Pcg32 &r) {
            return std::uint64_t(r.nextBelow(300));
        });
}

TEST(LineTable, SparseKeysMatchUnorderedMap)
{
    // Wide key range: the table grows across several doublings.
    for (std::uint64_t seed : {4u, 5u})
        runStream(seed, 30000, [](Pcg32 &r) {
            return (std::uint64_t(r.nextU32()) << 20) | r.nextBelow(64);
        });
}

TEST(LineTable, StridedKeysMatchUnorderedMap)
{
    // Set-aligned line numbers (multiples of a power of two) are the
    // pattern a cache sees; they must not collapse onto few slots.
    runStream(6, 20000, [](Pcg32 &r) {
        return std::uint64_t(r.nextBelow(2048)) * 1536;
    });
}

TEST(LineTable, EraseIfVisitsEveryEntryAcrossTheWrap)
{
    // Fill to the load limit so probe runs are long (and may wrap
    // past the last slot), then compact: a scan that skipped an
    // entry shifted into an already-visited slot would leave
    // survivors.
    LineTable<std::uint64_t> table(64);
    for (std::uint64_t k = 0; k < 64; ++k)
        table[k * 977] = k;
    ASSERT_EQ(table.size(), 64u);
    table.eraseIf([](std::uint64_t, std::uint64_t v) { return v % 2; });
    EXPECT_EQ(table.size(), 32u);
    for (std::uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(table.find(k * 977) != nullptr, k % 2 == 0) << k;
    table.eraseIf([](std::uint64_t, std::uint64_t) { return true; });
    EXPECT_TRUE(table.empty());
}

TEST(LineTable, SizedTableNeverGrows)
{
    // The cache sizes its line index for every tag slot up front.
    LineTable<std::uint32_t> table(512);
    const std::size_t cap = table.capacity();
    for (std::uint64_t k = 0; k < 512; ++k)
        table[k] = std::uint32_t(k);
    EXPECT_EQ(table.capacity(), cap);
    table.clear();
    EXPECT_EQ(table.capacity(), cap);
}

} // namespace
