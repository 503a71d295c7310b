/**
 * @file
 * Equivalence tests for mem::Cache's flat tag store: a reference LRU
 * model built from std::list + std::unordered_map (per-set MRU-first
 * lists, a tag map and an MSHR map with the same compaction rule)
 * and the real cache take the same seeded random access streams, and
 * after every access they must agree on the ready cycle, the
 * counters, residency of the touched line, the live MSHR count and
 * the sorted in-flight snapshot. Covered geometries: the fully
 * associative L1, the 16-way L2 and a sectored L1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "geom/rng.hpp"
#include "mem/cache.hpp"

namespace {

using cooprt::geom::Pcg32;
using cooprt::mem::Cache;
using cooprt::mem::CacheConfig;
using cooprt::mem::CacheStats;

/** The cache timing model written with node-based std containers. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg) : cfg_(cfg)
    {
        const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
        ways_ = cfg_.assoc == 0 ? std::uint32_t(lines) : cfg_.assoc;
        sets_.resize(cfg_.assoc == 0
                         ? 1
                         : std::max<std::uint64_t>(lines / cfg_.assoc, 1));
    }

    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint32_t sectors, std::uint64_t now,
           FetchFn below)
    {
        stats.accesses++;
        if (cfg_.sector_bytes == 0)
            sectors = 1u;
        auto m = mshr_.find(line);
        if (m != mshr_.end() && m->second.ready > now &&
            (sectors & ~m->second.sectors) == 0) {
            stats.mshr_merges++;
            touch(line);
            return m->second.ready;
        }
        const std::uint32_t resident = touch(line);
        const std::uint32_t missing = sectors & ~resident;
        if (resident != 0 && missing == 0) {
            stats.hits++;
            return now + cfg_.latency;
        }
        stats.misses++;
        if (resident != 0)
            stats.sector_misses++;
        const std::uint64_t ready =
            below(line, missing ? missing : sectors, now + cfg_.latency);
        Fill &f = mshr_[line];
        if (f.ready <= now)
            f.sectors = 0;
        f.ready = std::max(f.ready, ready);
        f.sectors |= sectors;
        insert(line, sectors);
        if (mshr_.size() >= 4096 && now - last_compact_ >= 10000) {
            last_compact_ = now;
            std::erase_if(mshr_, [now](const auto &kv) {
                return kv.second.ready <= now;
            });
        }
        return ready;
    }

    bool
    contains(std::uint64_t line) const
    {
        return set(line).where.count(line) != 0;
    }

    std::size_t mshrLive() const { return mshr_.size(); }

    std::vector<Cache::MshrEntry>
    outstandingLines() const
    {
        std::vector<Cache::MshrEntry> out;
        // cooprt-lint: allow(nondeterministic-iteration) snapshot is
        // sorted immediately below; hash-order appends cannot leak out
        for (const auto &[line, f] : mshr_)
            out.push_back({line, f.ready, f.sectors});
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.line < b.line;
                  });
        return out;
    }

    void
    reset()
    {
        for (Set &s : sets_) {
            s.lru.clear();
            s.where.clear();
        }
        mshr_.clear();
        stats = CacheStats{};
    }

    void
    resetTiming()
    {
        mshr_.clear();
        last_compact_ = 0;
        stats = CacheStats{};
    }

    CacheStats stats;

  private:
    struct Way
    {
        std::list<std::uint64_t>::iterator pos;
        std::uint32_t sectors = 0;
    };
    struct Set
    {
        std::list<std::uint64_t> lru; // front = MRU
        std::unordered_map<std::uint64_t, Way> where;
    };
    struct Fill
    {
        std::uint64_t ready = 0;
        std::uint32_t sectors = 0;
    };

    Set &set(std::uint64_t line) { return sets_[line % sets_.size()]; }
    const Set &
    set(std::uint64_t line) const
    {
        return sets_[line % sets_.size()];
    }

    std::uint32_t
    touch(std::uint64_t line)
    {
        Set &s = set(line);
        auto it = s.where.find(line);
        if (it == s.where.end())
            return 0;
        s.lru.splice(s.lru.begin(), s.lru, it->second.pos);
        return it->second.sectors;
    }

    void
    insert(std::uint64_t line, std::uint32_t sectors)
    {
        Set &s = set(line);
        auto it = s.where.find(line);
        if (it != s.where.end()) {
            it->second.sectors |= sectors;
            return;
        }
        if (s.lru.size() >= ways_) {
            s.where.erase(s.lru.back());
            s.lru.pop_back();
        }
        s.lru.push_front(line);
        s.where[line] = Way{s.lru.begin(), sectors};
    }

    CacheConfig cfg_;
    std::uint32_t ways_;
    std::vector<Set> sets_;
    std::unordered_map<std::uint64_t, Fill> mshr_;
    std::uint64_t last_compact_ = 0;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b, int step)
{
    ASSERT_EQ(a.accesses, b.accesses) << "step " << step;
    ASSERT_EQ(a.hits, b.hits) << "step " << step;
    ASSERT_EQ(a.misses, b.misses) << "step " << step;
    ASSERT_EQ(a.mshr_merges, b.mshr_merges) << "step " << step;
    ASSERT_EQ(a.sector_misses, b.sector_misses) << "step " << step;
}

/**
 * Random stream: lines from [0, @p span), clock steps of 0..@p step_max
 * cycles, downstream latency a fixed function of (line, sectors, t)
 * between 40 and 4000 cycles (long fills keep thousands of MSHR
 * entries live, so compaction runs).
 */
void
runStream(const CacheConfig &cfg, std::uint64_t seed, int ops,
          std::uint32_t span, std::uint32_t step_max)
{
    Cache cache(cfg);
    RefCache ref(cfg);
    Pcg32 rng(seed);
    auto below = [](std::uint64_t line, std::uint32_t sectors,
                    std::uint64_t t) {
        return t + 40 + (line * 2654435761u + sectors * 97u) % 3960;
    };
    std::uint64_t now = 0;
    std::size_t compactions = 0, live = 0;
    for (int i = 0; i < ops; ++i) {
        now += rng.nextBelow(step_max + 1);
        // Skewed reuse: half the accesses hit a small hot range.
        const std::uint64_t line = rng.nextBelow(2) == 0
                                       ? rng.nextBelow(span / 16 + 1)
                                       : rng.nextBelow(span);
        const std::uint32_t sectors =
            cfg.sector_bytes == 0
                ? 1u
                : cache.sectorMaskOf(line * cfg.line_bytes +
                                         rng.nextBelow(cfg.line_bytes),
                                     1 + rng.nextBelow(64));
        const std::uint64_t got = cache.access(line, sectors, now, below);
        const std::uint64_t want = ref.access(line, sectors, now, below);
        ASSERT_EQ(got, want) << "step " << i << " line " << line;
        expectSameStats(cache.stats(), ref.stats, i);
        ASSERT_EQ(cache.contains(line), ref.contains(line)) << i;
        const std::uint64_t probe = rng.nextBelow(span);
        ASSERT_EQ(cache.contains(probe), ref.contains(probe)) << i;
        ASSERT_EQ(cache.mshrLive(), ref.mshrLive()) << "step " << i;
        // Only compaction (or a reset, below) shrinks the table.
        compactions += cache.mshrLive() < live ? 1 : 0;
        live = cache.mshrLive();
        if (i % 97 == 0) {
            const auto a = cache.outstandingLines();
            const auto b = ref.outstandingLines();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t k = 0; k < a.size(); ++k) {
                ASSERT_EQ(a[k].line, b[k].line);
                ASSERT_EQ(a[k].ready, b[k].ready);
                ASSERT_EQ(a[k].sectors, b[k].sectors);
            }
        }
        if (i == ops / 2) {
            cache.resetTiming(); // warm tags, cold clock
            ref.resetTiming();
            now = 0;
            live = 0;
        } else if (i == 3 * ops / 4) {
            cache.reset();
            ref.reset();
            live = 0;
        }
    }
    for (std::uint64_t l = 0; l < span; ++l)
        ASSERT_EQ(cache.contains(l), ref.contains(l)) << "line " << l;
    // The stream must have exercised MSHR compaction.
    EXPECT_GE(compactions, 1u);
}

TEST(CacheEquivalence, FullyAssociativeL1)
{
    // Table 1 L1: 64 KB fully associative, 512 ways in one set.
    for (std::uint64_t seed : {1u, 2u})
        runStream(CacheConfig{64 * 1024, 0, 128, 20}, seed, 60000, 12000,
                  3);
}

TEST(CacheEquivalence, SixteenWayL2)
{
    // Table 1 L2 geometry scaled to 256 KB (128 sets x 16 ways) so
    // the stream both hits and conflicts.
    for (std::uint64_t seed : {3u, 4u})
        runStream(CacheConfig{256 * 1024, 16, 128, 160}, seed, 60000,
                  12000, 3);
}

TEST(CacheEquivalence, SectoredL1)
{
    CacheConfig cfg{16 * 1024, 0, 128, 20};
    cfg.sector_bytes = 32;
    runStream(cfg, 5, 60000, 12000, 3);
}

} // namespace
