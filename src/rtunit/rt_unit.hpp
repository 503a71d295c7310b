/**
 * @file
 * The RT unit timing model (paper Figs. 3 and 7).
 *
 * One RT unit per SM. It holds a warp buffer whose entries each carry
 * one in-flight trace_ray instruction: per-thread ray properties,
 * traversal stack, status, `main_tid` and the per-thread `min_thit`
 * registers. Every cycle the RT unit:
 *
 *   1. selects a warp (round-robin) and issues ONE coalesced unique
 *      node address from the TOSes of its ready threads to the memory
 *      hierarchy (threads sharing that address pop together);
 *   2. (CoopRT only) lets the Load Balancing Unit move one TOS per
 *      subwarp from a busy ("main") thread's stack to an idle
 *      ("helper") thread's stack, the helper inheriting `main_tid`;
 *   3. pops at most one memory response from the response FIFO, runs
 *      the per-thread math units (box/triangle tests), pushes hit
 *      children and updates the main thread's `min_thit` on closer
 *      primitive hits;
 *   4. retires warps whose threads have all emptied their stacks.
 *
 * Timing comes from the `FetchFn` callback (the SM's port into the
 * L1/L2/DRAM hierarchy), which returns data-ready cycles.
 */

#ifndef COOPRT_RTUNIT_RT_UNIT_HPP
#define COOPRT_RTUNIT_RT_UNIT_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bvh/flat_bvh.hpp"
#include "check/check.hpp"
#include "bvh/traversal.hpp"
#include "geom/proxy.hpp"
#include "geom/ray.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "rtunit/ring_deque.hpp"
#include "rtunit/trace_config.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/registry.hpp"

namespace cooprt::raytrace {
class UnitRecorder;
} // namespace cooprt::raytrace

namespace cooprt::rtunit {

/** Sentinel for "no cycle" / "never". */
constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();

/** Base address of the per-SM hit-record buffer (store queue). */
constexpr std::uint64_t kHitBufferBase = 0x8000'0000ULL;

/** A trace_ray instruction: up to 32 rays, one per active thread. */
struct TraceJob
{
    std::array<std::optional<geom::Ray>, kWarpSize> rays;

    /**
     * Any-hit semantics: the traversal of a ray terminates at the
     * first intersection inside its interval instead of searching
     * for the closest one (paper Section 2.1: "Traversal continues
     * until the stack is empty, or any-hit is found"). Used by the
     * shadow and ambient-occlusion shaders.
     */
    bool any_hit = false;

    /**
     * Leaf-test dispatch for non-rendering query workloads
     * (`cooprt::query`): None runs the triangle intersector, the
     * query kinds interpret proxy primitives (see geom/proxy.hpp).
     * Traversal, caching and timing are identical either way.
     */
    geom::QueryKind query = geom::QueryKind::None;

    int
    activeCount() const
    {
        int n = 0;
        for (const auto &r : rays)
            n += r.has_value();
        return n;
    }
};

/** Result of a retired trace_ray: per-thread closest hits. */
struct TraceResult
{
    std::array<geom::HitRecord, kWarpSize> hits;
    std::uint64_t issue_cycle = 0;
    std::uint64_t retire_cycle = 0;

    std::uint64_t latency() const { return retire_cycle - issue_cycle; }
};

/**
 * The RtUnitStats counters, one row each: X(field, combine, probe,
 * report). This one list declares the struct, drives Gpu::run's
 * aggregation (`Sum` over SMs, or `Max`), its COOPRT_CHECK re-sum,
 * the `rtunit.sm<i>.<field>` probes RtUnit::attachTrace registers
 * (`Unprobed`: the trace_latency histogram covers the two latency
 * fields instead) and the report's "rt_unit" block (`Reported`
 * fields, in table order).
 */
#define COOPRT_RTUNIT_STATS(X)                                                \
    X(node_fetches, Sum, Probed, Reported)   /* internal node records read */ \
    X(leaf_fetches, Sum, Probed, Reported)   /* leaf records read */          \
    X(box_tests, Sum, Probed, Reported)                                       \
    X(tri_tests, Sum, Probed, Reported)                                       \
    X(steals, Sum, Probed, Reported)         /* LBU node moves */             \
    X(coalesced_threads, Sum, Probed, Unreported) /* fetch-sharing threads */ \
    X(stale_pops, Sum, Probed, Reported)     /* pop-time min_thit discards */ \
    X(stack_overflows, Sum, Probed, Reported)                                 \
    X(retired_warps, Sum, Probed, Reported)                                   \
    X(retired_trace_latency, Sum, Unprobed, Unreported) /* latency sum */     \
    X(max_trace_latency, Max, Unprobed, Reported)                             \
    X(issue_cycles, Sum, Probed, Unreported) /* cycles that issued a fetch */ \
    X(prefetches, Sum, Probed, Reported)     /* child records prefetched */   \
    X(predictor_hits, Sum, Probed, Reported) /* predicted prim confirmed */   \
    X(predictor_misses, Sum, Probed, Unreported)                              \
    X(hit_stores, Sum, Probed, Unreported)   /* hit records written back */

/** Aggregate counters for one RT unit (fields: COOPRT_RTUNIT_STATS). */
struct RtUnitStats
{
#define COOPRT_STATS_FIELD(field, combine, probe, report)                \
    std::uint64_t field = 0;
    COOPRT_RTUNIT_STATS(COOPRT_STATS_FIELD)
#undef COOPRT_STATS_FIELD

    bool operator==(const RtUnitStats &) const = default;
};

/** How Gpu::run folds one RtUnitStats field over the SMs. */
enum class StatCombine { Sum, Max };

/** Whether RtUnit::attachTrace registers a field as a probe. */
enum class StatProbe { Probed, Unprobed };

/** Whether the run report's "rt_unit" block (core/report.cpp) writes a
 *  field. */
enum class StatReport { Reported, Unreported };

/** One row of COOPRT_RTUNIT_STATS as data. */
struct RtUnitStatField
{
    const char *name;
    std::uint64_t RtUnitStats::*member;
    StatCombine combine;
    StatProbe probe;
    StatReport report;
};

inline constexpr RtUnitStatField kRtUnitStatFields[] = {
#define COOPRT_STATS_ROW(field, combine, probe, report)                  \
    {#field, &RtUnitStats::field, StatCombine::combine, StatProbe::probe, \
     StatReport::report},
    COOPRT_RTUNIT_STATS(COOPRT_STATS_ROW)
#undef COOPRT_STATS_ROW
};

static_assert(std::size(kRtUnitStatFields) * sizeof(std::uint64_t) ==
                  sizeof(RtUnitStats),
              "every RtUnitStats field must be a COOPRT_RTUNIT_STATS row");

/** Fold @p unit into @p total, field by field (Sum or Max). */
inline void
accumulate(RtUnitStats &total, const RtUnitStats &unit)
{
    for (const RtUnitStatField &f : kRtUnitStatFields)
        total.*f.member = f.combine == StatCombine::Max
                              ? std::max(total.*f.member, unit.*f.member)
                              : total.*f.member + unit.*f.member;
}

/**
 * Per-interval thread-status sample for the paper's Fig. 4: threads
 * inside resident warps are inactive (no ray), busy (non-empty stack
 * or node in flight), or waiting (finished early / not yet started).
 */
struct ThreadStatusCounts
{
    std::uint64_t inactive = 0;
    std::uint64_t busy = 0;
    std::uint64_t waiting = 0;

    std::uint64_t total() const { return inactive + busy + waiting; }
};

/**
 * The RT unit. Owns warp-buffer entries and drives the cooperative
 * traversal. All scheduling state is deterministic.
 */
class RtUnit
{
  public:
    /** Memory port: (address, bytes, now) -> data-ready cycle. */
    using FetchFn = std::function<std::uint64_t(
        std::uint64_t addr, std::uint32_t bytes, std::uint64_t now)>;
    /** Invoked when a warp's trace_ray retires. */
    using RetireFn = std::function<void(int slot, const TraceResult &)>;

    /** Serving level of the most recent fetch (see MemorySystem). */
    using LevelFn = std::function<cooprt::prof::MemLevel()>;

    /**
     * @param level Serving-level reader for the attached observers
     *        (profiler, ray recorder, memscope). Read right after
     *        each fetch, and only when one of them is attached; null
     *        reports every fetch as served by L1.
     */
    RtUnit(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
           const TraceConfig &config, FetchFn fetch,
           LevelFn level = nullptr);
    ~RtUnit();

    RtUnit(const RtUnit &) = delete;
    RtUnit &operator=(const RtUnit &) = delete;

    const TraceConfig &config() const { return cfg_; }
    const RtUnitStats &stats() const { return stats_; }

    /**
     * Register this unit's counters into @p registry under
     * `rtunit.sm<sm_id>.*` (probes reading the live RtUnitStats,
     * plus a warp-buffer occupancy gauge and a trace-latency
     * histogram) and attach @p tracer for structured events (LBU
     * steal instants on track pid = @p sm_id). Either may be null.
     * Registrations are dropped in the destructor; the registry must
     * outlive this unit.
     */
    void attachTrace(cooprt::trace::Registry *registry,
                     cooprt::trace::Tracer *tracer, int sm_id);

    /**
     * Attach the stall-attribution profiler: every warp-resident
     * cycle is classified into @p profile per the `cooprt::prof`
     * taxonomy (the sum over buckets equals the warp's trace latency
     * exactly); response-starved cycles go to the memory level that
     * serves them. Null @p profile (the default) disables the
     * profiler entirely: no per-cycle work runs and simulated
     * behaviour is bit-identical.
     */
    void attachProf(cooprt::prof::RtUnitProfile *profile)
    { prof_ = profile; }

    /**
     * Attach the ray-level provenance recorder (`cooprt::raytrace`):
     * lifecycle events of the recorder's sampled rays — launch,
     * pops/pushes, fetches with their serving level, leaf tests, LBU
     * steals, retirement — are logged cycle-stamped. Null
     * @p recorder (the default) disables recording; hot paths then
     * pay one pointer test and simulated behaviour is bit-identical
     * (pinned-cycle proof in tests/raytrace).
     */
    void attachRayTrace(cooprt::raytrace::UnitRecorder *recorder)
    { ray_ = recorder; }

    /**
     * Attach the BVH-topology profiler (`cooprt::memscope`): every
     * coalesced node fetch is tagged into @p scope with the node's
     * stable id, tree depth, serving level, consumer lane count and
     * the warp's traversal phase. Null @p scope (the default)
     * disables tagging; hot paths then pay one pointer test and
     * simulated behaviour is bit-identical (pinned-cycle proof in
     * tests/memscope).
     */
    void attachMemscope(cooprt::memscope::UnitScope *scope)
    { mscope_ = scope; }

    /**
     * Component path used by `cooprt::check` violations (default
     * "rtunit"; the SM sets "rtunit.sm<id>"). No-op when the audit
     * layer is compiled out.
     */
    void
    setCheckLabel(const std::string &label)
    {
#if COOPRT_CHECK_ENABLED
        check_label_ = label;
#else
        (void)label;
#endif
    }

    /** Number of free warp-buffer entries. */
    int freeSlots() const;
    /** True when no warp is resident. */
    bool idle() const { return resident_ == 0; }

    /**
     * Insert a trace_ray instruction into a free warp-buffer slot.
     * @return The slot index used.
     * @throws std::runtime_error when the warp buffer is full.
     */
    int submit(const TraceJob &job, std::uint64_t now, RetireFn on_retire);

    /**
     * Advance the RT unit by one cycle at time @p now. Must be called
     * with non-decreasing @p now values.
     */
    void tick(std::uint64_t now);

    /**
     * The earliest cycle >= @p now at which calling tick() can make
     * progress, or kNever when the unit is empty. Used by the GPU's
     * idle-skipping main loop; skipping to this cycle cannot change
     * simulated behaviour.
     */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    /** Busy threads (non-empty stack or node in flight) right now. */
    ThreadStatusCounts threadStatus() const;

    /**
     * Share another RT unit's intersection-predictor table (a
     * GPU-wide predictor, so spatial locality between warps on
     * different SMs is not fragmented). No-op when the predictor is
     * disabled.
     */
    void sharePredictor(const RtUnit &other);

  private:
    /**
     * One stack entry: a node reference, its AABB entry distance, and
     * the owning ray's thread id (the per-entry main tag that lets a
     * helper accept new work while an old fetch is still in flight).
     */
    struct StackEntry
    {
        bvh::NodeRef ref;
        float entry_t;
        std::int8_t main;
    };

    /** Per-thread traversal state within a warp entry. */
    struct ThreadState
    {
        geom::Ray ray;          ///< this thread's own ray
        bool active = false;    ///< thread had a ray at submit
        int main_tid = 0;       ///< current ray target (status/debug)
        RingDeque<StackEntry> stack;
        bool pending = false;   ///< node fetch in flight
        bvh::NodeRef pending_ref;
        std::int8_t pending_main = 0;
    };

    /**
     * One warp-buffer entry. Besides the per-thread state it keeps
     * lane masks (bit t = thread t) that the per-cycle choices test
     * with countr_zero instead of scanning 32 threads; every stack
     * or pending mutation updates them (pushWork, popWork, popSteal,
     * setPending):
     *
     *  - `work`: non-empty stack; `deep`: at least two entries;
     *    `pend`: node fetch in flight.
     *  - `dirty`: the TOS may be stale. Set when a lane's TOS
     *    changes or when the search limit of a ray owner in its
     *    subwarp drops; cleared once tryIssue's stale check has run
     *    on the lane. A clean lane's TOS passed that check against
     *    a search limit that has not dropped since, and a limit
     *    never grows, so the check would drop nothing there.
     */
    struct WarpEntry
    {
        bool valid = false;
        bool any_hit = false;
        geom::QueryKind query = geom::QueryKind::None;
        std::array<ThreadState, kWarpSize> th;
        std::array<float, kWarpSize> min_thit;
        std::array<geom::HitRecord, kWarpSize> hit;
        int outstanding = 0;    ///< in-flight responses
        std::uint64_t issue_cycle = 0;
        RetireFn on_retire;
        /** First cycle not yet stall-attributed (profiler only). */
        std::uint64_t prof_from = 0;
        /** Consumed any response yet (observer phase tracking). */
        bool prof_consumed = false;
        std::uint32_t work = 0;
        std::uint32_t deep = 0;
        std::uint32_t pend = 0;
        std::uint32_t dirty = 0;
    };

    /** An element of the response FIFO. */
    struct Response
    {
        std::uint64_t ready = 0; ///< cycle data+math are available
        int slot = 0;
        std::uint32_t consumers = 0; ///< thread mask
        bvh::NodeRef ref;
        /** Ray owner per consumer thread (issue-time snapshot). */
        std::array<std::int8_t, kWarpSize> mains{};
        /** Serving memory level (prof::MemLevel; profiler only). */
        std::int8_t level = 0;

        bool operator>(const Response &o) const { return ready > o.ready; }
    };

    /** Min-heap push onto responses_ (what priority_queue::push does). */
    void pushResponse(Response r);
    /** Min-heap pop of responses_.front(). */
    Response popResponse();

    /** Busy (non-empty stack or fetch in flight), waiting (active,
     *  not busy) and inactive lanes of @p w. */
    static ThreadStatusCounts laneStatus(const WarpEntry &w);

    /** Pop-side of the node-tracking discipline (DFS back/BFS front). */
    StackEntry popWork(WarpEntry &w, int tid) const;
    const StackEntry &peekWork(const ThreadState &t) const;
    /** Steal-side pop (honours steal_from_bottom). */
    StackEntry popSteal(WarpEntry &w, int tid) const;
    void pushWork(WarpEntry &w, int tid, const StackEntry &e);
    /** Re-derive lane @p tid's work/deep bits and mark it dirty. */
    static void stackChanged(WarpEntry &w, int tid);
    /** Set or clear lane @p tid's pending fetch (flag and mask). */
    void setPending(WarpEntry &w, int tid, bool pending) const;
    /** Mark every lane that may hold @p main's entries dirty (its
     *  search limit dropped). */
    void limitDropped(WarpEntry &w, int main) const;
    /** Lanes of the subwarp containing @p tid. */
    std::uint32_t subwarpMask(int tid) const;
    /** Return a retired (or never used) entry to its empty state,
     *  keeping the stacks' buffers. */
    static void resetEntry(WarpEntry &w);

    /** Drop stale TOS entries (entry_t >= geom::cullLimit of the
     *  owner's search limit). */
    void dropStaleWork(int slot, WarpEntry &w, int tid,
                       std::uint64_t now);

    /** Current search limit for ray owner @p main. */
    float searchLimit(const WarpEntry &w, int main) const;

    bool tryIssue(std::uint64_t now);
    void runLbu(std::uint64_t now);
    bool processOneResponse(std::uint64_t now);
    void processNode(int slot, WarpEntry &w, int tid, bvh::NodeRef ref,
                     int main, std::uint64_t now);

    /** Quantized-ray key for the intersection predictor. */
    std::size_t predictorIndex(const geom::Ray &ray) const;
    void predictorSeed(WarpEntry &w, int tid);
    void predictorLearn(const WarpEntry &w);
    void maybeRetire(int slot, std::uint64_t now);
    /** All-lane busy edges for ray-sampled warps (fig11 timelines). */
    void recordRayEdges(int slot, const WarpEntry &w, std::uint64_t now);

    const bvh::FlatBvh &bvh_;
    const scene::Mesh &mesh_;
    TraceConfig cfg_;
    FetchFn fetch_;
    /** Serving-level reader shared by the observers below. */
    LevelFn level_;
    RtUnitStats stats_;

    std::vector<WarpEntry> warps_;
    int resident_ = 0;
    int rr_next_ = 0; ///< round-robin warp pointer

    /**
     * The response FIFO, kept as an explicit min-heap on `ready`
     * (std::push_heap/std::pop_heap — behaviourally identical to the
     * std::priority_queue it replaces) so the audit layer can iterate
     * outstanding responses per warp slot.
     */
    std::vector<Response> responses_;

    /**
     * Intersection-predictor table: prim id or UINT32_MAX. May be
     * shared across RT units (see sharePredictor()).
     */
    std::shared_ptr<std::vector<std::uint32_t>> predictor_;
    std::uint64_t last_tick_ = 0;

    /** Observability hooks (all null/unused when tracing is off). */
    cooprt::trace::Registry *metrics_registry_ = nullptr;
    cooprt::trace::Tracer *tracer_ = nullptr;
    cooprt::trace::Histogram *latency_hist_ = nullptr;
    int trace_pid_ = 0;

    /**
     * Stall-attribution state (all dormant while prof_ is null; see
     * attachProf). Accounting runs in two passes per tick: a gap
     * pass at tick entry covers the idle-skipped cycles since the
     * last tick from the frozen pre-tick state, and an end-of-tick
     * pass classifies the current cycle with the per-slot progress /
     * steal event masks recorded during the tick.
     */
    void profAccount(std::uint64_t now, bool end_of_tick);

    cooprt::prof::RtUnitProfile *prof_ = nullptr;
    /** Ray provenance recorder (dormant while null; see attachRayTrace). */
    cooprt::raytrace::UnitRecorder *ray_ = nullptr;
    /** BVH-topology profiler (dormant while null; see attachMemscope). */
    cooprt::memscope::UnitScope *mscope_ = nullptr;
    /** Slots that issued a fetch or consumed a response this tick. */
    std::uint64_t prof_progress_ = 0;
    /** Slots the LBU served this tick. */
    std::uint64_t prof_stolen_ = 0;
    /** Last cycle the end-of-tick pass accounted (kNever = none). */
    std::uint64_t prof_accounted_ = kNever;

#if COOPRT_CHECK_ENABLED
    /**
     * Audit-layer state (check builds only; see DESIGN.md invariant
     * catalogue). Validates the warp-buffer/response/LBU bookkeeping
     * at the end of every tick. Read-only over simulated state.
     */
    void auditInvariants(std::uint64_t now) const;

    std::string check_label_ = "rtunit";
    /** Trace_rays submitted (for rtunit.warp_conservation). */
    std::uint64_t audit_submitted_ = 0;
    /** Node fetches issued this tick (rtunit.single_issue_per_cycle). */
    mutable int audit_issues_this_tick_ = 0;
    /** Architectural traversal-stack depth bound for this BVH. */
    std::size_t check_stack_bound_ = 0;
#endif
};

} // namespace cooprt::rtunit

#endif // COOPRT_RTUNIT_RT_UNIT_HPP
