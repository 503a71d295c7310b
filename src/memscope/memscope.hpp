/**
 * @file
 * The BVH-topology & memory-hierarchy profiler (`cooprt::memscope`).
 *
 * The PR-3 stall profiler answers *when* an RT unit waits; this layer
 * answers *what data* it waits on. Every node fetch the RT unit
 * issues is tagged with the node's stable id, its tree depth, the
 * memory level that served it (`MemorySystem::lastFetchDepth()`), the
 * active-lane count of the coalesced pop and the warp's traversal
 * phase — accumulating node-hotness heatmaps, per-depth hit/miss and
 * traffic histograms, and per-depth SIMD divergence. On the memory
 * side it measures cache-line reuse distance (a Mattson LRU stack
 * over line addresses, log2-bucketed, per cache level), L2 bank/set
 * contention, and DRAM row locality.
 *
 * Like `prof`, the layer is compile-always and runtime-enabled:
 * attach a `Collector` through `core::RunConfig::memscope` (or
 * `--memscope` on simulate_cli) to collect; leave it null and hot
 * paths pay a single pointer test — simulated cycle counts are
 * bit-identical either way (pinned-cycle proof in tests/core).
 *
 * Conservation: the memory-side tallies are recorded at the single
 * choke point every access crosses (`MemorySystem::fetch`), so the
 * per-level line counts and byte totals must sum *exactly* to the
 * pre-existing `cache.*` / DRAM counters. Check builds re-derive
 * that identity after every fetch (`memscope.traffic_conservation`);
 * the `MemscopeMisattribution` seeded mutation proves the audit
 * fires.
 *
 * Export views:
 *   - a `memscope` object in the run report and `Collector::writeJson`
 *     (schema checked by tools/validate_sinks.py);
 *   - folded stacks `scene;depth<d>;node<id> N` (writeFolded) for
 *     flamegraph.pl / speedscope — the tree-shaped twin of the prof
 *     stall flamegraph;
 *   - a top-K hot-node table (writeHotNodes);
 *   - `memscope.*` registry probes (registerMetrics) feeding the
 *     metrics-CSV time series;
 *   - Perfetto counter tracks emitted by the Gpu sampler.
 */

#ifndef COOPRT_MEMSCOPE_MEMSCOPE_HPP
#define COOPRT_MEMSCOPE_MEMSCOPE_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace cooprt::memscope {

/** Memory-hierarchy serving levels (mirrors prof::MemLevel). */
constexpr int kNumLevels = 3; // 0 = L1 hit, 1 = L2, 2 = DRAM

/** Traversal phases (mirrors prof::Phase: ramp/traverse/drain). */
constexpr int kNumPhases = 3;

/** log2 reuse-distance buckets: bucket b holds distances d with
    bit_width(d) == b, i.e. 0, 1, 2-3, 4-7, ... (d = distinct lines
    touched between two accesses to the same line). */
constexpr int kReuseBuckets = 32;

/** Per-BVH-node access counters (one row of the node heatmap). */
struct NodeCounters
{
    std::uint64_t accesses = 0; ///< coalesced fetches of this record
    std::uint64_t bytes = 0;    ///< bytes those fetches requested
    std::uint64_t lanes = 0;    ///< consumer-lane sum over fetches
    /** Fetches by serving level (l1 / l2 / dram). */
    std::array<std::uint64_t, kNumLevels> level{};
    /** Tree depth of the node (root = 1; 0 = never seen). */
    std::uint16_t depth = 0;
};

/** Per-tree-depth aggregate (hit/miss, traffic, divergence). */
struct DepthCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;
    /** Consumer-lane sum: `lanes / accesses` is the mean active-lane
        occupancy per pop at this depth (the divergence metric). */
    std::uint64_t lanes = 0;
    std::array<std::uint64_t, kNumLevels> level{};
    /** Accesses by the requesting warp's traversal phase. */
    std::array<std::uint64_t, kNumPhases> phase{};
};

/**
 * Per-RT-unit accumulation, fed by `RtUnit` at fetch-issue time.
 * Node ids index `nodes` directly (they are dense per FlatBvh);
 * addresses are stable for the lifetime of the owning Collector.
 */
struct UnitScope
{
    std::vector<NodeCounters> nodes;   ///< indexed by stable node id
    std::vector<DepthCounters> depths; ///< indexed by tree depth
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;

    /** Tag one coalesced node fetch. */
    void record(std::uint32_t node_id, int depth, int level,
                int lanes, int phase, std::uint32_t bytes);
    void reset();
};

/**
 * Reuse-distance (Mattson LRU stack) and set-contention profiler for
 * one cache instance. `touch()` is O(log n) via a Fenwick tree over
 * access positions; attach through `mem::Cache::attachMemscope`.
 */
class CacheScope
{
  public:
    /** Record one access to @p line mapping to cache set @p set. */
    void touch(std::uint64_t line, std::uint32_t set);

    std::uint64_t accesses() const { return accesses_; }
    /** First-touch accesses (infinite reuse distance). */
    std::uint64_t cold() const { return cold_; }
    /** Re-reference count = sum over hist() buckets. */
    std::uint64_t reused() const { return accesses_ - cold_; }
    const std::array<std::uint64_t, kReuseBuckets> &hist() const
    { return hist_; }

    /** Per-set access counts (contention profile). */
    const std::vector<std::uint64_t> &setAccesses() const
    { return set_accesses_; }
    std::uint64_t maxSetAccesses() const;
    std::size_t setsTouched() const;

    void reset();

  private:
    /** Fenwick prefix sum over positions [0, p). */
    std::uint64_t prefix(std::uint64_t p) const;
    void add(std::uint64_t pos, std::int64_t delta);

    std::unordered_map<std::uint64_t, std::uint64_t> last_pos_;
    /** 1 where a position is some line's most recent touch. */
    std::vector<std::uint8_t> present_;
    std::vector<std::uint64_t> fen_; ///< Fenwick over present_
    std::uint64_t now_ = 0;          ///< next access position

    std::uint64_t accesses_ = 0;
    std::uint64_t cold_ = 0;
    std::array<std::uint64_t, kReuseBuckets> hist_{};
    std::vector<std::uint64_t> set_accesses_;
};

/**
 * Interconnect-side counters, recorded by `mem::MemorySystem` at its
 * fetch choke point. These are the left side of the
 * `memscope.traffic_conservation` identity: `line_level` sums to the
 * aggregate L1 access/hit counters and `l2_fill_bytes` equals
 * `MemSystemStats::l2_bytes` exactly.
 */
struct MemTraffic
{
    /** L1 line accesses by serving level (0 hit / 1 L2 / 2 DRAM;
        MSHR merges count as L2, as lastFetchDepth() does). */
    std::array<std::uint64_t, kNumLevels> line_level{};
    /** Bytes crossing into the L2 (== MemSystemStats::l2_bytes). */
    std::uint64_t l2_fill_bytes = 0;
    std::uint64_t bank_requests = 0;
    /** Requests that found their L2 bank busy. */
    std::uint64_t bank_conflicts = 0;
    /** Cycles requests queued behind busy banks (sum of waits). */
    std::uint64_t bank_wait_cycles = 0;

    std::uint64_t lineTotal() const
    { return line_level[0] + line_level[1] + line_level[2]; }
    void reset() { *this = MemTraffic{}; }
};

/**
 * DRAM row-locality profiler; attach through `Dram::attachMemscope`.
 * A request is a row hit when it lands in the same row of its
 * channel as the previous request to that channel.
 */
struct DramScope
{
    /** Row granularity for locality accounting (2 KB typical). */
    std::uint32_t row_bytes = 2048;
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;

    void onAccess(std::uint64_t addr, std::uint32_t bytes,
                  std::uint32_t channel);
    void reset();

  private:
    std::vector<std::int64_t> last_row_; ///< per channel, -1 = none
};

/** Top-K hot-node row (writeHotNodes / JSON "hot_nodes"). */
struct HotNode
{
    std::uint32_t node = 0;
    int depth = 0;
    NodeCounters c;
};

/**
 * Flat roll-up of a run's memscope data, copied into
 * `gpu::GpuRunResult` so reports and benches can consume the
 * attribution without holding the Collector. `enabled` is false (and
 * everything empty) when no collector was attached.
 */
struct Summary
{
    bool enabled = false;
    std::uint64_t node_accesses = 0;
    std::uint64_t node_bytes = 0;
    std::uint64_t node_lanes = 0;
    std::array<std::uint64_t, kNumLevels> node_level{};

    /** One row per touched tree depth (depth = index + 1 skipped;
        row carries its own depth). */
    struct DepthRow
    {
        int depth = 0;
        std::uint64_t accesses = 0;
        std::uint64_t bytes = 0;
        std::uint64_t lanes = 0;
        std::array<std::uint64_t, kNumLevels> level{};

        /** Mean active lanes per coalesced pop at this depth. */
        double avgLanes() const
        { return accesses ? double(lanes) / double(accesses) : 0.0; }
        /** Fraction of fetches at this depth not served by the L1. */
        double missRate() const
        {
            return accesses ? double(level[1] + level[2]) /
                                  double(accesses)
                            : 0.0;
        }
    };
    std::vector<DepthRow> depths;

    MemTraffic traffic;
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_row_misses = 0;
    std::uint64_t l1_reuse_cold = 0;
    std::uint64_t l1_reuse_tracked = 0;
    std::uint64_t l2_reuse_cold = 0;
    std::uint64_t l2_reuse_tracked = 0;
};

/**
 * The GPU-wide collector: one UnitScope per SM's RT unit, one
 * CacheScope per L1 (plus one for the L2), the interconnect and DRAM
 * scopes — stable addresses, hierarchical export. Attach through
 * `core::RunConfig::memscope`; each run resets collected data.
 */
class Collector
{
  public:
    Collector() = default;
    ~Collector();

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Accessors create on first use; addresses stay valid until the
        Collector dies (registry probes read them live). */
    UnitScope &unit(int sm_id);
    CacheScope &l1Scope(int sm_id);
    CacheScope &l2Scope() { return l2_scope_; }
    MemTraffic &traffic() { return traffic_; }
    DramScope &dram() { return dram_; }

    int unitCount() const { return int(units_.size()); }
    const UnitScope &unitAt(int i) const
    { return *units_[std::size_t(i)]; }
    const CacheScope &l2ScopeConst() const { return l2_scope_; }
    const MemTraffic &trafficConst() const { return traffic_; }
    const DramScope &dramConst() const { return dram_; }

    /** Zero all collected data, keeping addresses stable. */
    void reset();

    /** GPU-level node-heatmap totals (sum over units). */
    NodeCounters nodeTotals() const;
    /** GPU-level per-depth rows, indexed by depth. */
    std::vector<DepthCounters> depthTotals() const;
    /** GPU-level top-@p k hottest nodes (by accesses, id ties). */
    std::vector<HotNode> hotNodes(std::size_t k) const;
    /** L1 reuse histogram aggregated over SMs. */
    void l1ReuseTotals(std::uint64_t &cold, std::uint64_t &tracked,
                       std::array<std::uint64_t, kReuseBuckets> &hist)
        const;

    /** Flat roll-up for GpuRunResult (enabled = true). */
    Summary summary() const;

    /**
     * Publish `memscope.*` probes into @p registry: per-SM
     * `memscope.sm<i>.*`, GPU-level `memscope.gpu.*`, interconnect
     * `memscope.mem.*`, DRAM `memscope.dram.*` and reuse
     * `memscope.l1.* / memscope.l2.*`. Idempotent; probes are
     * dropped in the destructor (the registry must outlive this
     * object). This file is the single registration authority for
     * `memscope.*` (tools/lint_stats_registry.py enforces it).
     */
    void registerMetrics(cooprt::trace::Registry &registry);

    /** Hierarchical JSON (schema: tools/validate_sinks.py). */
    void writeJson(std::ostream &os, const std::string &scene) const;

    /**
     * Folded-stack flamegraph lines, one per touched node:
     *
     *     <scene>;depth<d>;node<id> <accesses>
     *
     * in (depth, node id) order — deterministic and directly
     * consumable by flamegraph.pl or speedscope.
     */
    void writeFolded(std::ostream &os, const std::string &scene) const;

    /** Human-readable top-@p k hot-node table. */
    void writeHotNodes(std::ostream &os, std::size_t k) const;

    /** Stamp the run identity (called by `Simulation::run`); emitted
     *  into writeJson. Metadata only — survives reset(). */
    void setRunKey(const cooprt::trace::RunKeyFields &key)
    { run_key_ = key; }
    const cooprt::trace::RunKeyFields &runKey() const
    { return run_key_; }

  private:
    std::vector<std::unique_ptr<UnitScope>> units_;
    std::vector<std::unique_ptr<CacheScope>> l1_scopes_;
    CacheScope l2_scope_;
    MemTraffic traffic_;
    DramScope dram_;
    cooprt::trace::Registry *registry_ = nullptr;
    cooprt::trace::RunKeyFields run_key_;
};

} // namespace cooprt::memscope

#endif // COOPRT_MEMSCOPE_MEMSCOPE_HPP
