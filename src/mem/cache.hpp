/**
 * @file
 * Set-associative / fully-associative LRU cache timing model with
 * MSHR-style miss coalescing.
 *
 * Matches Table 1 of the paper: the L1 data cache is 64 KB fully
 * associative LRU with 20-cycle latency; the L2 is 3 MB 16-way LRU
 * with 160-cycle latency.
 *
 * The model is event-driven: `access()` returns the cycle at which
 * the requested line is available, and updates tag state immediately.
 * Outstanding misses are tracked per line so that secondary misses to
 * an in-flight line merge onto the same fill (no duplicate downstream
 * traffic), which is where ray coherence shows up in bandwidth.
 */

#ifndef COOPRT_MEM_CACHE_HPP
#define COOPRT_MEM_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "mem/line_table.hpp"
#include "memscope/memscope.hpp"
#include "trace/registry.hpp"

namespace cooprt::mem {

/** Cache geometry and timing. */
struct CacheConfig
{
    std::uint64_t size_bytes = 64 * 1024;
    /** Associativity; 0 means fully associative. */
    std::uint32_t assoc = 0;
    std::uint32_t line_bytes = 128;
    /** Hit latency in core cycles. */
    std::uint32_t latency = 20;
    /**
     * Sector size in bytes; 0 disables sectoring. GPGPU-Sim-style
     * sectored caches fill only the touched 32 B sectors of a line
     * (the paper's memory access queue "breaks the requests into
     * small chunks"): an access to an untouched sector of a resident
     * line is a *sector miss* — it fetches just that sector from the
     * next level.
     */
    std::uint32_t sector_bytes = 0;
};

/** Counters for one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    /** Primary misses: caused a downstream fetch. */
    std::uint64_t misses = 0;
    /** Secondary misses merged onto an outstanding fill. */
    std::uint64_t mshr_merges = 0;
    /** Sector misses: line resident but the sector was not (counted
     *  within `misses` as well; sectored configs only). */
    std::uint64_t sector_misses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : double(misses + mshr_merges) / double(accesses);
    }
};

/**
 * One cache level. The downstream level is invoked through a callback
 * so L1 -> L2 -> DRAM stacks compose without virtual dispatch in the
 * hot path.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** One in-flight MSHR fill, snapshot form. */
    struct MshrEntry
    {
        std::uint64_t line;    ///< line address
        std::uint64_t ready;   ///< cycle the fill completes
        std::uint32_t sectors; ///< sectors being filled
    };

    /**
     * Snapshot of the in-flight fills, sorted by line address. The
     * MSHR table itself is hash-ordered, so anything that emits,
     * audits or compares in-flight state must go through this
     * accessor — hash order is not part of the simulator's
     * deterministic surface.
     */
    std::vector<MshrEntry> outstandingLines() const;

    /** Live MSHR entries (completed-but-uncompacted fills count). */
    std::size_t mshrLive() const { return outstanding_.size(); }

    /** Component path reported by COOPRT_CHECK audits ("mem.l1.sm0",
     *  "mem.l2", ...). No-op in default builds. */
    void
    setCheckLabel(const std::string &label)
    {
#if COOPRT_CHECK_ENABLED
        check_label_ = label;
#else
        (void)label;
#endif
    }

    /**
     * Register this cache's counters into @p registry as probes
     * under `<prefix>.accesses`, `.hits`, `.misses`, `.mshr_merges`,
     * `.sector_misses` and `.miss_rate`. @p owner tags the
     * registrations for `Registry::unregisterOwner` (the owning
     * hierarchy unregisters, since it controls this cache's
     * lifetime).
     */
    void registerMetrics(cooprt::trace::Registry &registry,
                         const std::string &prefix,
                         const void *owner) const;

    /**
     * Attach (or detach with nullptr) a reuse-distance profiler. A
     * borrowed pointer: every access is forwarded to it. Pure
     * observation — no effect on timing or tag state.
     */
    void attachMemscope(memscope::CacheScope *scope)
    { mscope_ = scope; }

    std::uint64_t lineOf(std::uint64_t addr) const
    { return addr / cfg_.line_bytes; }

    /** All-sectors mask for this cache's geometry. */
    std::uint32_t
    fullSectorMask() const
    {
        if (cfg_.sector_bytes == 0)
            return 1u;
        const std::uint32_t n = cfg_.line_bytes / cfg_.sector_bytes;
        return n >= 32 ? 0xffffffffu : (1u << n) - 1u;
    }

    /** Sector mask touched by [addr, addr+bytes) within its line. */
    std::uint32_t
    sectorMaskOf(std::uint64_t addr, std::uint32_t bytes) const
    {
        if (cfg_.sector_bytes == 0)
            return 1u;
        const std::uint64_t off = addr % cfg_.line_bytes;
        const std::uint32_t first =
            std::uint32_t(off / cfg_.sector_bytes);
        const std::uint32_t last = std::uint32_t(
            (off + (bytes ? bytes - 1 : 0)) / cfg_.sector_bytes);
        std::uint32_t mask = 0;
        for (std::uint32_t s = first;
             s <= last && s * cfg_.sector_bytes < cfg_.line_bytes; ++s)
            mask |= (1u << s);
        return mask;
    }

    /**
     * Access sectors of one line.
     *
     * @param line       Line index (addr / line_bytes).
     * @param sectors    Sector mask needed (use fullSectorMask() /
     *                   sectorMaskOf(); ignored when unsectored).
     * @param now        Request cycle.
     * @param fetchBelow Callback `(line, missing_sectors, cycle) ->
     *                   ready_cycle` invoked on a miss to fetch the
     *                   missing sectors from the next level.
     * @return Cycle at which the requested data is available here.
     */
    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint32_t sectors,
           std::uint64_t now, FetchFn fetchBelow)
    {
        stats_.accesses++;
        if (mscope_ != nullptr)
            mscope_->touch(line, setOf(line));
        if (cfg_.sector_bytes == 0)
            sectors = 1u;
        // Outstanding fill covering all needed sectors? Merge (MSHR
        // secondary miss) and wait for the in-flight data; checked
        // before the tag lookup because the line and its sector bits
        // are installed at miss time.
        if (const Mshr *mshr = outstanding_.find(line);
            mshr != nullptr && mshr->ready > now &&
            (sectors & ~mshr->sectors) == 0) {
            stats_.mshr_merges++;
            lookupAndTouch(line, 0);
            COOPRT_CHECK_ONLY(auditInvariants(line, now);)
            return mshr->ready;
        }
        const std::uint32_t resident = lookupAndTouch(line, 0);
        std::uint32_t missing = sectors & ~resident;
        if (resident != 0 && missing == 0) {
            stats_.hits += COOPRT_MUTATE(CacheHitMiscount) ? 2 : 1;
            COOPRT_CHECK_ONLY(auditInvariants(line, now);)
            return now + cfg_.latency;
        }
        stats_.misses++;
        if (resident != 0)
            stats_.sector_misses++;
        const std::uint64_t ready =
            fetchBelow(line, missing ? missing : sectors,
                       now + cfg_.latency);
        auto &slot = outstanding_[line];
        if (slot.ready <= now)
            slot.sectors = 0;
        slot.ready = std::max(slot.ready, ready);
        slot.sectors |= sectors;
        insert(line, sectors);
        maybeCompactOutstanding(now);
        COOPRT_CHECK_ONLY(auditInvariants(line, now);)
        return ready;
    }

    /** Backward-compatible whole-line access. */
    template <typename FetchFn>
    std::uint64_t
    access(std::uint64_t line, std::uint64_t now, FetchFn fetchBelow)
    {
        return access(line, fullSectorMask(), now,
                      [&](std::uint64_t l, std::uint32_t,
                          std::uint64_t t) { return fetchBelow(l, t); });
    }

    /** True when @p line currently resides in the cache. */
    bool contains(std::uint64_t line) const;

    /** Invalidate everything (tests/start of run). */
    void reset();

    /**
     * Reset timing state (in-flight fills, whose ready times are in
     * absolute cycles) and statistics, but keep the cached tags —
     * used when a new pass restarts the clock on a warm machine.
     */
    void resetTiming();

  private:
#if COOPRT_CHECK_ENABLED
    /**
     * Per-access audit: counter conservation plus LRU/tag-map
     * consistency of the set @p line maps to (DESIGN.md catalogue).
     */
    void auditInvariants(std::uint64_t line, std::uint64_t now) const;
#endif

    /**
     * Look up @p line: returns the resident sector mask (0 when
     * absent), touches the LRU and ORs @p add_sectors into the
     * resident mask when present.
     */
    std::uint32_t lookupAndTouch(std::uint64_t line,
                                 std::uint32_t add_sectors);
    void insert(std::uint64_t line, std::uint32_t sectors);
    std::uint32_t setOf(std::uint64_t line) const;
    void maybeCompactOutstanding(std::uint64_t now);

    CacheConfig cfg_;
    CacheStats stats_;
    std::uint32_t num_sets_;
    std::uint32_t ways_;

    /** Null link of the intrusive LRU lists. */
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** Unlink tag slot @p slot from its set's LRU list. */
    void unlink(std::uint32_t set, std::uint32_t slot);
    /** Link tag slot @p slot in as its set's MRU entry. */
    void linkFront(std::uint32_t set, std::uint32_t slot);

    /**
     * Flat tag store: slot = set * ways + way holds the resident
     * line and its sector mask. Each set's slots form an intrusive
     * doubly-linked LRU list (head = MRU, tail = LRU); a set fills
     * its slots in order and afterwards only recycles its tail, so
     * slots [set*ways, set*ways + count) are the live ones.
     */
    std::vector<std::uint64_t> tag_;
    std::vector<std::uint32_t> sectors_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> tail_;
    std::vector<std::uint32_t> count_;
    /** Resident line -> tag slot, over all sets. */
    LineTable<std::uint32_t> index_;

    /** In-flight fill: ready cycle + sectors being filled. */
    struct Mshr
    {
        std::uint64_t ready = 0;
        std::uint32_t sectors = 0;
    };
    LineTable<Mshr> outstanding_;
    std::uint64_t last_compact_ = 0;
    memscope::CacheScope *mscope_ = nullptr; // borrowed, may be null

#if COOPRT_CHECK_ENABLED
    std::string check_label_ = "mem.cache";
#endif
};

} // namespace cooprt::mem

#endif // COOPRT_MEM_CACHE_HPP
