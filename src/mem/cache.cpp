#include "mem/cache.hpp"

#include <algorithm>

namespace cooprt::mem {

void
Cache::registerMetrics(cooprt::trace::Registry &registry,
                       const std::string &prefix,
                       const void *owner) const
{
    const CacheStats *s = &stats_;
    auto add = [&](const char *name, const std::uint64_t *src) {
        registry.probe(prefix + "." + name,
                       [src] { return double(*src); }, owner);
    };
    add("accesses", &s->accesses);
    add("hits", &s->hits);
    add("misses", &s->misses);
    add("mshr_merges", &s->mshr_merges);
    add("sector_misses", &s->sector_misses);
    registry.probe(prefix + ".miss_rate",
                   [s] { return s->missRate(); }, owner);
    registry.probe(prefix + ".mshr_live",
                   [this] { return double(outstanding_.size()); },
                   owner);
}

std::vector<Cache::MshrEntry>
Cache::outstandingLines() const
{
    std::vector<MshrEntry> out;
    out.reserve(outstanding_.size());
    outstanding_.forEach([&](std::uint64_t line, const Mshr &m) {
        out.push_back({line, m.ready, m.sectors});
    });
    std::sort(out.begin(), out.end(),
              [](const MshrEntry &a, const MshrEntry &b) {
                  return a.line < b.line;
              });
    return out;
}

Cache::Cache(const CacheConfig &config) : cfg_(config)
{
    const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
    if (cfg_.assoc == 0) {
        num_sets_ = 1;
        ways_ = std::uint32_t(lines);
    } else {
        ways_ = cfg_.assoc;
        num_sets_ = std::uint32_t(lines / cfg_.assoc);
        if (num_sets_ == 0)
            num_sets_ = 1;
    }
    const std::size_t slots = std::size_t(num_sets_) * ways_;
    tag_.assign(slots, 0);
    sectors_.assign(slots, 0);
    prev_.assign(slots, kNil);
    next_.assign(slots, kNil);
    head_.assign(num_sets_, kNil);
    tail_.assign(num_sets_, kNil);
    count_.assign(num_sets_, 0);
    index_ = LineTable<std::uint32_t>(slots);
}

std::uint32_t
Cache::setOf(std::uint64_t line) const
{
    return std::uint32_t(line % num_sets_);
}

void
Cache::unlink(std::uint32_t set, std::uint32_t slot)
{
    const std::uint32_t p = prev_[slot], n = next_[slot];
    (p == kNil ? head_[set] : next_[p]) = n;
    (n == kNil ? tail_[set] : prev_[n]) = p;
}

void
Cache::linkFront(std::uint32_t set, std::uint32_t slot)
{
    const std::uint32_t h = head_[set];
    prev_[slot] = kNil;
    next_[slot] = h;
    (h == kNil ? tail_[set] : prev_[h]) = slot;
    head_[set] = slot;
}

std::uint32_t
Cache::lookupAndTouch(std::uint64_t line, std::uint32_t add_sectors)
{
    const std::uint32_t *slot = index_.find(line);
    if (slot == nullptr)
        return 0;
    const std::uint32_t set = setOf(line);
    if (head_[set] != *slot) { // touch to MRU
        unlink(set, *slot);
        linkFront(set, *slot);
    }
    sectors_[*slot] |= add_sectors;
    return sectors_[*slot];
}

bool
Cache::contains(std::uint64_t line) const
{
    return index_.find(line) != nullptr;
}

void
Cache::insert(std::uint64_t line, std::uint32_t sectors)
{
    if (const std::uint32_t *slot = index_.find(line)) {
        sectors_[*slot] |= sectors;
        return;
    }
    const std::uint32_t set = setOf(line);
    std::uint32_t slot;
    if (count_[set] >= ways_) {
        slot = tail_[set]; // evict the LRU line, reuse its slot
        index_.erase(tag_[slot]);
        unlink(set, slot);
    } else {
        slot = set * ways_ + count_[set]++;
    }
    tag_[slot] = line;
    sectors_[slot] = sectors;
    linkFront(set, slot);
    index_[line] = slot;
}

void
Cache::maybeCompactOutstanding(std::uint64_t now)
{
    // Drop completed fills occasionally so the MSHR table stays small.
    if (outstanding_.size() < 4096 || now - last_compact_ < 10000)
        return;
    last_compact_ = now;
    outstanding_.eraseIf(
        [now](std::uint64_t, const Mshr &m) { return m.ready <= now; });
}

#if COOPRT_CHECK_ENABLED
void
Cache::auditInvariants(std::uint64_t line, std::uint64_t now) const
{
    // Every access is classified exactly once.
    COOPRT_AUDIT(check_label_, "mem.cache_access_conservation", now,
                 stats_.accesses ==
                     stats_.hits + stats_.misses + stats_.mshr_merges,
                 "accesses=" + std::to_string(stats_.accesses) +
                     " hits=" + std::to_string(stats_.hits) +
                     " misses=" + std::to_string(stats_.misses) +
                     " mshr_merges=" +
                     std::to_string(stats_.mshr_merges));
    COOPRT_AUDIT(check_label_, "mem.cache_access_conservation", now,
                 stats_.sector_misses <= stats_.misses,
                 "sector_misses=" +
                     std::to_string(stats_.sector_misses) +
                     " > misses=" + std::to_string(stats_.misses));

    // The touched set's LRU list and the line index mirror each
    // other: every listed slot belongs to the set and is what the
    // index maps its tag to, the links are mutual, and the list
    // holds exactly the set's live count (at most ways). Together
    // with index size == live slots overall, no index entry dangles.
    const std::uint32_t set = setOf(line);
    std::uint32_t listed = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t slot = head_[set];
         slot != kNil && listed <= ways_; slot = next_[slot]) {
        const std::uint32_t *where = index_.find(tag_[slot]);
        COOPRT_AUDIT(check_label_, "mem.cache_lru_consistent", now,
                     slot / ways_ == set && prev_[slot] == prev &&
                         setOf(tag_[slot]) == set && where != nullptr &&
                         *where == slot,
                     "set " + std::to_string(set) + " slot " +
                         std::to_string(slot) + " (line " +
                         std::to_string(tag_[slot]) +
                         ") lacks a matching index entry or link");
        prev = slot;
        ++listed;
    }
    std::size_t live = 0;
    for (std::uint32_t c : count_)
        live += c;
    COOPRT_AUDIT(check_label_, "mem.cache_lru_consistent", now,
                 listed == count_[set] && count_[set] <= ways_ &&
                     tail_[set] == prev && index_.size() == live,
                 "set " + std::to_string(set) + " lru=" +
                     std::to_string(listed) + " count=" +
                     std::to_string(count_[set]) + " ways=" +
                     std::to_string(ways_) + " index=" +
                     std::to_string(index_.size()) + " live=" +
                     std::to_string(live));
}
#endif // COOPRT_CHECK_ENABLED

void
Cache::resetTiming()
{
    outstanding_.clear();
    last_compact_ = 0;
    stats_ = CacheStats{};
}

void
Cache::reset()
{
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(tail_.begin(), tail_.end(), kNil);
    std::fill(count_.begin(), count_.end(), 0u);
    index_.clear();
    outstanding_.clear();
    stats_ = CacheStats{};
}

} // namespace cooprt::mem
