#include "rtunit/rt_unit.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "geom/rng.hpp"
#include "raytrace/raytrace.hpp"

namespace cooprt::rtunit {

using bvh::NodeRef;
using geom::kNoHit;
using geom::Ray;

static_assert(cooprt::raytrace::kLanes == kWarpSize,
              "raytrace lane count must mirror the warp width");

RtUnit::RtUnit(const bvh::FlatBvh &bvh, const scene::Mesh &mesh,
               const TraceConfig &config, FetchFn fetch, LevelFn level)
    : bvh_(bvh), mesh_(mesh), cfg_(config), fetch_(std::move(fetch)),
      level_(std::move(level))
{
    cfg_.validate();
    warps_.resize(std::size_t(cfg_.warp_buffer_entries));
    if (cfg_.intersection_predictor)
        predictor_ = std::make_shared<std::vector<std::uint32_t>>(
            std::size_t(cfg_.predictor_entries), 0xffffffffu);

#if COOPRT_CHECK_ENABLED
    // Architectural stack-depth bound (rtunit.stack_depth_bound): a
    // DFS thread's stack holds at most (width-1) entries per tree
    // level for each of its at most two concurrent work sources (its
    // current subtree plus the children of one in-flight response);
    // BFS queues are only bounded by the ref population. Generous
    // constants keep legitimate runs violation-free; a runaway push
    // loop blows through either bound immediately.
    const bvh::TreeStats ts = bvh_.stats();
    if (cfg_.order == TraversalOrder::Dfs)
        check_stack_bound_ =
            4u * std::size_t(ts.max_depth + 2) * bvh::kWideArity + 16;
    else
        check_stack_bound_ =
            2u * (bvh_.nodeCount() + bvh_.primCount()) + 16;
#endif
}

RtUnit::~RtUnit()
{
    if (metrics_registry_ != nullptr)
        metrics_registry_->unregisterOwner(this);
}

void
RtUnit::attachTrace(cooprt::trace::Registry *registry,
                    cooprt::trace::Tracer *tracer, int sm_id)
{
    tracer_ = tracer;
    trace_pid_ = sm_id;
    metrics_registry_ = registry;
    if (registry == nullptr)
        return;

    const std::string p = "rtunit.sm" + std::to_string(sm_id) + ".";
    auto add = [&](const char *name, const std::uint64_t *src) {
        registry->probe(p + name, [src] { return double(*src); },
                        this);
    };
    for (const RtUnitStatField &f : kRtUnitStatFields)
        if (f.probe == StatProbe::Probed)
            add(f.name, &(stats_.*f.member));
    registry->probe(p + "warpbuf.occupancy",
                    [this] { return double(resident_); }, this);
    registry->probe(p + "responses.pending",
                    [this] { return double(responses_.size()); },
                    this);
    latency_hist_ = &registry->histogram(p + "trace_latency");
}

std::size_t
RtUnit::predictorIndex(const Ray &ray) const
{
    // Quantize origin to a coarse grid over the scene bounds and the
    // direction to a 4x4x4 lattice; mix into a table index.
    const geom::AABB &b = bvh_.rootBounds();
    const geom::Vec3 e = b.extent();
    auto q = [](float v, float lo, float ext, int cells) {
        if (ext <= 0.0f)
            return 0;
        int c = int((v - lo) / ext * float(cells));
        return c < 0 ? 0 : (c >= cells ? cells - 1 : c);
    };
    // Short (occlusion-length) rays hit nearby geometry almost
    // independently of their direction: key them by a fine origin
    // grid with no direction bits (a wrong prediction is filtered by
    // the confirmation test anyway). Long rays use a coarse origin
    // grid plus direction.
    const bool short_ray = ray.tmax < 0.25f * e.length();
    const int cells = short_ray ? 256 : 16;
    std::uint64_t key = short_ray ? 1 : 2;
    key = key * 1031 + std::uint64_t(q(ray.orig.x, b.lo.x, e.x, cells));
    key = key * 1031 + std::uint64_t(q(ray.orig.y, b.lo.y, e.y, cells));
    key = key * 1031 + std::uint64_t(q(ray.orig.z, b.lo.z, e.z, cells));
    if (!short_ray) {
        key = key * 31 + std::uint64_t(q(ray.dir.x, -1.0f, 2.0f, 4));
        key = key * 31 + std::uint64_t(q(ray.dir.y, -1.0f, 2.0f, 4));
        key = key * 31 + std::uint64_t(q(ray.dir.z, -1.0f, 2.0f, 4));
    }
    return std::size_t(geom::mix64(key) %
                       std::uint64_t(cfg_.predictor_entries));
}

void
RtUnit::predictorSeed(WarpEntry &w, int tid)
{
    ThreadState &th = w.th[std::size_t(tid)];
    const std::uint32_t prim = (*predictor_)[predictorIndex(th.ray)];
    if (prim == 0xffffffffu || prim >= mesh_.size()) {
        stats_.predictor_misses++;
        return;
    }
    const float thit = mesh_.tri(prim).intersect(th.ray, th.ray.tmax);
    if (thit == kNoHit) {
        stats_.predictor_misses++;
        return;
    }
    // A confirmed prediction is a real intersection: it can seed
    // min_thit safely — traversal will still find anything closer.
    stats_.predictor_hits++;
    w.min_thit[std::size_t(tid)] = thit;
    limitDropped(w, tid);
    geom::HitRecord &rec = w.hit[std::size_t(tid)];
    rec.thit = thit;
    rec.prim_id = prim;
    rec.normal = mesh_.tri(prim).shadingNormal(th.ray.dir);
    if (w.any_hit)
        w.min_thit[std::size_t(tid)] = 0.0f; // done immediately
}

void
RtUnit::predictorLearn(const WarpEntry &w)
{
    for (int t = 0; t < kWarpSize; ++t) {
        const ThreadState &th = w.th[std::size_t(t)];
        if (!th.active || !w.hit[std::size_t(t)].hit())
            continue;
        (*predictor_)[predictorIndex(th.ray)] =
            w.hit[std::size_t(t)].prim_id;
    }
}

int
RtUnit::freeSlots() const
{
    return int(warps_.size()) - resident_;
}

void
RtUnit::pushResponse(Response r)
{
    // Exactly std::priority_queue<Response, vector, greater>::push.
    responses_.push_back(std::move(r));
    std::push_heap(responses_.begin(), responses_.end(),
                   std::greater<Response>{});
}

RtUnit::Response
RtUnit::popResponse()
{
    std::pop_heap(responses_.begin(), responses_.end(),
                  std::greater<Response>{});
    Response r = std::move(responses_.back());
    responses_.pop_back();
    return r;
}

int
RtUnit::submit(const TraceJob &job, std::uint64_t now, RetireFn on_retire)
{
    int slot = -1;
    for (std::size_t i = 0; i < warps_.size(); ++i) {
        if (!warps_[i].valid) {
            slot = int(i);
            break;
        }
    }
    if (slot < 0)
        throw std::runtime_error("RtUnit::submit: warp buffer full");

    WarpEntry &w = warps_[std::size_t(slot)];
    resetEntry(w);
    w.valid = true;
    w.any_hit = job.any_hit;
    w.query = job.query;
    w.issue_cycle = now;
    w.on_retire = std::move(on_retire);

    for (int t = 0; t < kWarpSize; ++t) {
        ThreadState &th = w.th[std::size_t(t)];
        th.main_tid = t; // paper: main_tid initialized to tid
        w.min_thit[std::size_t(t)] = kNoHit;
        if (!job.rays[std::size_t(t)])
            continue;
        th.active = true;
        th.ray = *job.rays[std::size_t(t)];
        // Algorithm 1 lines 1-2: test the root AABB, push on hit.
        const float t_root = bvh_.rootBounds().intersect(
            th.ray, th.ray.tmax);
        if (t_root != kNoHit && bvh_.primCount() > 0)
            pushWork(w, t, {bvh_.root(), t_root, std::int8_t(t)});
        // Query rays have no meaningful triangle intersection: the
        // predictor would seed from (and later learn) degenerate
        // proxy hits, polluting the shared table.
        if (cfg_.intersection_predictor &&
            w.query == geom::QueryKind::None)
            predictorSeed(w, t);
    }
    resident_++;
    COOPRT_CHECK_ONLY(audit_submitted_++;)

    if (ray_ != nullptr) {
        // Sampling decision + launch events; before maybeRetire so a
        // warp whose rays all missed the scene box still records its
        // (instant) lifecycle.
        std::uint32_t active_mask = 0;
        for (int t = 0; t < kWarpSize; ++t)
            if (w.th[std::size_t(t)].active)
                active_mask |= 1u << t;
        ray_->onSubmit(slot, now, active_mask, w.work);
    }

    // A warp whose rays all missed the scene box retires immediately.
    maybeRetire(slot, now);

    if (prof_ != nullptr && w.valid) {
        // Attribution starts at the submit cycle. A retired slot may
        // be recycled within one tick, so drop any event bits its
        // previous occupant left behind; and when the end-of-tick
        // pass for this cycle already ran (post-tick submits from the
        // SM), classify the submit cycle right away so it is not
        // lost from the conservation sum.
        prof_progress_ &= ~(1ull << std::uint64_t(slot));
        prof_stolen_ &= ~(1ull << std::uint64_t(slot));
        w.prof_from = now;
        if (prof_accounted_ == now)
            profAccount(now, true);
    }
    return slot;
}

ThreadStatusCounts
RtUnit::laneStatus(const WarpEntry &w)
{
    const std::uint32_t busy = w.work | w.pend;
    ThreadStatusCounts c;
    c.busy = std::uint64_t(std::popcount(busy));
    for (int t = 0; t < kWarpSize; ++t)
        if (((busy >> t) & 1) == 0)
            (w.th[std::size_t(t)].active ? c.waiting : c.inactive)++;
    return c;
}

float
RtUnit::searchLimit(const WarpEntry &w, int main) const
{
    const ThreadState &owner = w.th[std::size_t(main)];
    const float mt = w.min_thit[std::size_t(main)];
    return mt < owner.ray.tmax ? mt : owner.ray.tmax;
}

std::uint32_t
RtUnit::subwarpMask(int tid) const
{
    const int lo = tid - tid % cfg_.subwarp_size;
    return std::uint32_t(((1ull << cfg_.subwarp_size) - 1) << lo);
}

void
RtUnit::stackChanged(WarpEntry &w, int tid)
{
    const std::uint32_t bit = 1u << tid;
    const std::size_t depth = w.th[std::size_t(tid)].stack.size();
    w.work = depth > 0 ? w.work | bit : w.work & ~bit;
    w.deep = depth > 1 ? w.deep | bit : w.deep & ~bit;
    w.dirty |= bit;
}

void
RtUnit::setPending(WarpEntry &w, int tid, bool pending) const
{
    w.th[std::size_t(tid)].pending = pending;
    // Seeded bug: the flag moves but its mask bit does not — the
    // class of defect rtunit.lane_masks_consistent exists to catch.
    if (!pending && COOPRT_MUTATE(StaleLaneMask))
        return;
    const std::uint32_t bit = 1u << tid;
    w.pend = pending ? w.pend | bit : w.pend & ~bit;
}

void
RtUnit::limitDropped(WarpEntry &w, int main) const
{
    // A helper may hold the owner's entries only within its subwarp.
    w.dirty |= cfg_.coop ? subwarpMask(main) : 1u << main;
}

void
RtUnit::resetEntry(WarpEntry &w)
{
    w.valid = false;
    w.any_hit = false;
    w.query = geom::QueryKind::None;
    for (ThreadState &th : w.th) {
        th.ray = Ray{};
        th.active = false;
        th.main_tid = 0;
        th.stack.clear();
        th.pending = false;
        th.pending_ref = NodeRef{};
        th.pending_main = 0;
    }
    w.min_thit.fill(kNoHit);
    w.hit.fill(geom::HitRecord{});
    w.outstanding = 0;
    w.issue_cycle = 0;
    w.on_retire = nullptr;
    w.prof_from = 0;
    w.prof_consumed = false;
    w.work = w.deep = w.pend = w.dirty = 0;
}

RtUnit::StackEntry
RtUnit::popWork(WarpEntry &w, int tid) const
{
    ThreadState &t = w.th[std::size_t(tid)];
    const StackEntry e = cfg_.order == TraversalOrder::Dfs
                             ? t.stack.pop_back()
                             : t.stack.pop_front();
    stackChanged(w, tid);
    return e;
}

const RtUnit::StackEntry &
RtUnit::peekWork(const ThreadState &t) const
{
    return cfg_.order == TraversalOrder::Dfs ? t.stack.back()
                                             : t.stack.front();
}

RtUnit::StackEntry
RtUnit::popSteal(WarpEntry &w, int tid) const
{
    if (cfg_.order == TraversalOrder::Bfs || !cfg_.steal_from_bottom) {
        // Paper: helper pops the main's TOS (or queue front for BFS).
        return popWork(w, tid);
    }
    // Ablation: steal the oldest (bottom) entry — largest subtree.
    const StackEntry e = w.th[std::size_t(tid)].stack.pop_front();
    stackChanged(w, tid);
    return e;
}

void
RtUnit::pushWork(WarpEntry &w, int tid, const StackEntry &e)
{
    ThreadState &t = w.th[std::size_t(tid)];
    t.stack.push_back(e);
    if (int(t.stack.size()) > cfg_.stack_capacity)
        stats_.stack_overflows++;
#if COOPRT_CHECK_ENABLED
    // Seeded bug: a runaway push loop floods the stack, the class of
    // defect rtunit.stack_depth_bound exists to catch.
    if (COOPRT_MUTATE(StackOverPush))
        for (std::size_t i = 0; i <= check_stack_bound_; ++i)
            t.stack.push_back(e);
#endif
    stackChanged(w, tid);
}

void
RtUnit::dropStaleWork(int slot, WarpEntry &w, int tid,
                      std::uint64_t now)
{
    ThreadState &t = w.th[std::size_t(tid)];
    while (!t.stack.empty()) {
        const StackEntry &top = peekWork(t);
        if (top.entry_t < geom::cullLimit(searchLimit(w, top.main)))
            break;
        const StackEntry dropped = popWork(w, tid);
        stats_.stale_pops++;
        if (ray_ != nullptr)
            ray_->onPop(slot, tid, dropped.main, dropped.ref.raw(),
                        true, now);
    }
}

bool
RtUnit::tryIssue(std::uint64_t now)
{
    const int n = int(warps_.size());
    // Warp selection order per the configured scheduler policy.
    std::array<int, 64> order;
    switch (cfg_.sched) {
      case WarpSchedPolicy::RoundRobin:
        for (int k = 0; k < n; ++k)
            order[std::size_t(k)] = (rr_next_ + k) % n;
        break;
      case WarpSchedPolicy::GreedyThenOldest:
      case WarpSchedPolicy::OldestFirst: {
        // Oldest = smallest issue_cycle among valid entries. Greedy
        // starts from the last-served slot instead.
        for (int k = 0; k < n; ++k)
            order[std::size_t(k)] = k;
        std::sort(order.begin(), order.begin() + n, [&](int a, int b) {
            const WarpEntry &wa = warps_[std::size_t(a)];
            const WarpEntry &wb = warps_[std::size_t(b)];
            if (wa.valid != wb.valid)
                return wa.valid;
            return wa.issue_cycle < wb.issue_cycle;
        });
        if (cfg_.sched == WarpSchedPolicy::GreedyThenOldest &&
            warps_[std::size_t(rr_next_ % n)].valid) {
            // Move the last-served slot to the front.
            const int greedy = rr_next_ % n;
            auto it = std::find(order.begin(), order.begin() + n,
                                greedy);
            std::rotate(order.begin(), it, it + 1);
        }
        break;
      }
    }

    for (int k = 0; k < n; ++k) {
        const int slot = order[std::size_t(k)];
        WarpEntry &w = warps_[std::size_t(slot)];
        if (!w.valid)
            continue;

        // Pop-time elimination (paper Section 6.1), in ascending
        // lane order, on the lanes whose TOS may have gone stale
        // (see WarpEntry); on clean lanes it would drop nothing.
        for (std::uint32_t m = w.work & w.dirty; m != 0; m &= m - 1)
            dropStaleWork(slot, w, std::countr_zero(m), now);
        w.dirty = 0;
        const std::uint32_t ready = w.work & ~w.pend;
        if (ready == 0) {
            // Dropping stale entries may have finished this warp.
            maybeRetire(slot, now);
            continue;
        }

        // Coalesce: all ready threads whose next node matches the
        // selected unique address pop together and share the fetch.
        const NodeRef ref =
            peekWork(w.th[std::size_t(std::countr_zero(ready))]).ref;
        std::uint32_t consumers = 0;
        std::array<std::int8_t, kWarpSize> mains{};
        for (std::uint32_t m = ready; m != 0; m &= m - 1) {
            const int t = std::countr_zero(m);
            ThreadState &th = w.th[std::size_t(t)];
            if (!(peekWork(th).ref == ref))
                continue;
            const StackEntry e = popWork(w, t);
            setPending(w, t, true);
            th.pending_ref = ref;
            th.pending_main = e.main;
            mains[std::size_t(t)] = e.main;
            consumers |= (1u << t);
        }

        const std::uint64_t data_ready =
            fetch_(bvh_.addressOf(ref), bvh_.fetchBytes(ref), now);
        if (prof_ != nullptr)
            prof_progress_ |= 1ull << std::uint64_t(slot);
        // The serving level is read (a const read of
        // MemorySystem::lastFetchDepth) only for an observer that
        // uses it: the profiler and memscope for every fetch, the
        // ray recorder for sampled warps.
        std::int8_t level = 0;
        if (level_ && (prof_ != nullptr || mscope_ != nullptr ||
                       (ray_ != nullptr && ray_->slotSampled(slot))))
            level = std::int8_t(level_());
        if (ray_ != nullptr && ray_->slotSampled(slot))
            for (int t = 0; t < kWarpSize; ++t)
                if (consumers & (1u << t)) {
                    ray_->onPop(slot, t,
                                mains[std::size_t(t)], ref.raw(),
                                false, now);
                    ray_->onFetchIssued(slot, t,
                                        mains[std::size_t(t)],
                                        ref.raw(), level, now);
                }
        pushResponse(Response{data_ready + cfg_.math_latency, slot,
                              consumers, ref, mains, level});
        w.outstanding++;
        COOPRT_CHECK_ONLY(audit_issues_this_tick_++;)

        stats_.issue_cycles++;
        stats_.coalesced_threads +=
            std::uint64_t(std::popcount(consumers));
        if (ref.isLeaf())
            stats_.leaf_fetches++;
        else
            stats_.node_fetches++;

        if (mscope_ != nullptr) {
            // Tag the fetch: stable node id, tree depth, serving
            // level, consumer lanes (the per-depth divergence axis)
            // and the warp's traversal phase. Observation only.
            mscope_->record(
                bvh_.nodeIdOf(ref), bvh_.depthOf(ref), int(level),
                std::popcount(consumers),
                int(prof::phaseOf(w.prof_consumed, w.work != 0)),
                bvh_.fetchBytes(ref));
        }

        recordRayEdges(slot, w, now);

        // Round-robin rotates away; greedy keeps serving this warp.
        rr_next_ = cfg_.sched == WarpSchedPolicy::GreedyThenOldest
                       ? slot
                       : (slot + 1) % n;
        return true;
    }
    return false;
}

void
RtUnit::runLbu(std::uint64_t now)
{
    if (!cfg_.coop)
        return;

    // The LBU serves one warp per cycle: the first (round-robin) warp
    // that contains at least one helper/main pair. Within that warp,
    // every subwarp may move up to lbu_moves_per_cycle nodes (the
    // paper's "all subwarps processed together" variant).
    const int n = int(warps_.size());
    for (int k = 0; k < n; ++k) {
        const int slot = (rr_next_ + k) % n;
        WarpEntry &w = warps_[std::size_t(slot)];
        if (!w.valid)
            continue;

        bool any_move = false;
        for (int lo = 0; lo < kWarpSize; lo += cfg_.subwarp_size) {
            const std::uint32_t group = subwarpMask(lo);
            for (int move = 0; move < cfg_.lbu_moves_per_cycle;
                 ++move) {
                // Priority encoders (Fig. 8): lowest-index helper
                // (empty stack; in the default Vulkan-sim-like model
                // an in-flight final fetch does not disqualify it)
                // and lowest-index main with a stealable node beyond
                // its own next pop.
                const std::uint32_t helpers =
                    group & ~w.work &
                    (cfg_.helper_requires_idle ? ~w.pend : ~0u);
                const std::uint32_t mains =
                    group & (w.deep | (w.pend & w.work));
                if (helpers == 0 || mains == 0)
                    break;
                int helper = std::countr_zero(helpers);
                const int main = std::countr_zero(mains);

#if COOPRT_CHECK_ENABLED
                // Seeded bug: retarget a busy thread as the helper —
                // the steal then destroys that thread's own work.
                if (COOPRT_MUTATE_ARMED(IllegalLbuHelper)) {
                    for (int t = lo; t < lo + cfg_.subwarp_size; ++t) {
                        if (t == main ||
                            w.th[std::size_t(t)].stack.empty())
                            continue;
                        if (COOPRT_MUTATE(IllegalLbuHelper))
                            helper = t;
                        break;
                    }
                }
                {
                    const ThreadState &hth = w.th[std::size_t(helper)];
                    const ThreadState &mth = w.th[std::size_t(main)];
                    COOPRT_AUDIT(
                        check_label_, "rtunit.lbu_steal_legality", now,
                        helper != main &&
                            helper / cfg_.subwarp_size ==
                                main / cfg_.subwarp_size &&
                            hth.stack.empty() &&
                            (!cfg_.helper_requires_idle ||
                             !hth.pending) &&
                            (mth.stack.size() >= 2 ||
                             (mth.pending && !mth.stack.empty())),
                        "helper=" + std::to_string(helper) +
                            " (stack=" +
                            std::to_string(hth.stack.size()) +
                            " pending=" +
                            std::to_string(hth.pending) + ") main=" +
                            std::to_string(main) + " (stack=" +
                            std::to_string(mth.stack.size()) +
                            " pending=" +
                            std::to_string(mth.pending) + ")");
                }
#endif

                ThreadState &hs = w.th[std::size_t(helper)];
                const StackEntry stolen = popSteal(w, main);
                pushWork(w, helper, stolen);
                if (ray_ != nullptr)
                    ray_->onSteal(slot, main, helper, stolen.main,
                                  hs.main_tid != stolen.main, now);
                // The stolen entry carries its ray owner; the helper
                // records it as its current target (status/debug).
                hs.main_tid = stolen.main;
                stats_.steals++;
                if (prof_ != nullptr)
                    prof_stolen_ |= 1ull << std::uint64_t(slot);
                any_move = true;
                COOPRT_TRACE_INSTANT(tracer_, "rtunit.lbu", "steal",
                                     trace_pid_, slot, now);

                recordRayEdges(slot, w, now);
            }
        }
        if (any_move)
            return; // one warp served per cycle
    }
}

void
RtUnit::processNode(int slot, WarpEntry &w, int tid, NodeRef ref,
                    int main, std::uint64_t now)
{
    const Ray &ray = w.th[std::size_t(main)].ray;

    if (ref.isLeaf()) {
        std::uint32_t tested = 0;
        for (std::uint32_t k = 0; k < ref.primCount(); ++k) {
            const std::uint32_t prim = bvh_.primAt(ref.firstSlot() + k);
            stats_.tri_tests++;
            tested++;
            const float thit =
                w.query == geom::QueryKind::None
                    ? mesh_.tri(prim).intersect(ray, kNoHit)
                    : geom::queryLeafTest(w.query, mesh_.tri(prim),
                                          ray, kNoHit);
            if (thit != kNoHit &&
                geom::closerHit(thit, prim, searchLimit(w, main),
                                w.hit[std::size_t(main)].prim_id)) {
                // Paper Section 5.3: helpers update the *main*
                // thread's min_thit register.
                w.min_thit[std::size_t(main)] = thit;
                limitDropped(w, main);
                geom::HitRecord &rec = w.hit[std::size_t(main)];
                rec.thit = thit;
                rec.prim_id = prim;
                // Proxy triangles are degenerate; their shading
                // normal is undefined (0/0), so query hits carry
                // none.
                rec.normal = w.query == geom::QueryKind::None
                                 ? mesh_.tri(prim).shadingNormal(
                                       ray.dir)
                                 : geom::Vec3{};
                if (w.any_hit) {
                    // Any-hit: this ray is done. Collapsing the
                    // search limit to zero makes every remaining
                    // stack entry of this ray stale, so the drops
                    // happen for free at pop time.
                    w.min_thit[std::size_t(main)] = 0.0f;
                    break;
                }
            }
        }
        if (ray_ != nullptr)
            ray_->onLeafTests(slot, tid, main, tested, now);
        return;
    }

    const int n = bvh_.childCount(ref);
    for (int i = 0; i < n; ++i) {
        const bvh::ChildInfo c = bvh_.child(ref, i);
        stats_.box_tests++;
        const float thit =
            c.box.intersect(ray, geom::cullLimit(searchLimit(w, main)));
        if (thit != kNoHit) {
            pushWork(w, tid, {c.ref, thit, std::int8_t(main)});
            if (ray_ != nullptr)
                ray_->onNodePush(slot, tid, main, c.ref.raw(), now);
            if (cfg_.child_prefetch) {
                // Treelet-style prefetch: warm the hierarchy with
                // the child's record so the demand fetch hits L1 or
                // merges with this fill. The ready time is ignored;
                // the bandwidth cost is real.
                fetch_(bvh_.addressOf(c.ref), bvh_.fetchBytes(c.ref),
                       now);
                stats_.prefetches++;
            }
        }
    }
}

bool
RtUnit::processOneResponse(std::uint64_t now)
{
    if (responses_.empty() || responses_.front().ready > now)
        return false;

    const Response r = popResponse();

    WarpEntry &w = warps_[std::size_t(r.slot)];
    assert(w.valid);
#if COOPRT_CHECK_ENABLED
    // Seeded bug: the response is accounted for but its data never
    // delivered — the consuming threads stay pending forever.
    if (COOPRT_MUTATE(DropResponse)) {
        // cooprt-lint: allow(check-purity) seeded-bug mutation:
        // deliberately corrupts state, armed only under --mutate
        w.outstanding--;
        return true;
    }
#endif
    const bool ray_on = ray_ != nullptr && ray_->slotSampled(r.slot);
    for (std::uint32_t m = r.consumers; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        ThreadState &th = w.th[std::size_t(t)];
        assert(th.pending_main == r.mains[std::size_t(t)]);
        if (th.pending && th.pending_ref == r.ref)
            setPending(w, t, false);
        if (ray_on)
            ray_->onFetchConsumed(r.slot, t, r.mains[std::size_t(t)],
                                  r.ref.raw(), r.level, now);
        processNode(r.slot, w, t, r.ref, r.mains[std::size_t(t)], now);
    }
    w.outstanding--;
    // Seeded bug: one response consumed, accounted for twice.
    if (COOPRT_MUTATE(DoubleConsumeResponse))
        w.outstanding--;

    // Phase flag for the profiler and memscope (plain observer store,
    // no timing effect).
    w.prof_consumed = true;
    if (prof_ != nullptr)
        prof_progress_ |= 1ull << std::uint64_t(r.slot);

    recordRayEdges(r.slot, w, now);

    maybeRetire(r.slot, now);
    return true;
}

void
RtUnit::maybeRetire(int slot, std::uint64_t now)
{
    WarpEntry &w = warps_[std::size_t(slot)];
    if (!w.valid || w.outstanding > 0 || (w.work | w.pend) != 0)
        return;

    TraceResult result;
    result.hits = w.hit;
    result.issue_cycle = w.issue_cycle;
    result.retire_cycle = now;

    if (cfg_.intersection_predictor &&
        w.query == geom::QueryKind::None)
        predictorLearn(w);

    if (cfg_.model_hit_stores) {
        // Store-queue writes of the hit records (Section 5.1); the
        // closest-hit shader reads them back. Buffered: they consume
        // bandwidth but do not delay the retire.
        for (int t = 0; t < kWarpSize; ++t) {
            if (!w.th[std::size_t(t)].active ||
                !w.hit[std::size_t(t)].hit())
                continue;
            const std::uint64_t addr =
                kHitBufferBase +
                std::uint64_t(slot * kWarpSize + t) *
                    cfg_.hit_record_bytes;
            fetch_(addr, cfg_.hit_record_bytes, now);
            stats_.hit_stores++;
        }
    }

    stats_.retired_warps++;
    const std::uint64_t lat = result.latency();
    stats_.retired_trace_latency += lat;
    if (lat > stats_.max_trace_latency)
        stats_.max_trace_latency = lat;
    if (latency_hist_ != nullptr)
        latency_hist_->record(lat);

    if (ray_ != nullptr)
        ray_->onRetire(slot, now);

    RetireFn cb = std::move(w.on_retire);
    resetEntry(w);
    // Seeded bug: the slot is recycled but the residency ledger keeps
    // counting it (use-after-free of the warp-buffer entry class).
    if (!COOPRT_MUTATE(LeakWarpSlot))
        resident_--;
    if (cb)
        cb(slot, result);
}

void
RtUnit::recordRayEdges(int slot, const WarpEntry &w, std::uint64_t now)
{
    if (ray_ == nullptr || !ray_->wantLaneEdges(slot))
        return;
    // All-lane edges at every state-changing site (issue, LBU,
    // response; the recorder adds submit and retire itself). The
    // timeline recorder registers transitions only, so
    // laneTimeline() replays these into fig11's busy bars.
    const std::uint32_t busy = w.work | w.pend;
    for (int t = 0; t < kWarpSize; ++t)
        ray_->onLaneEdge(slot, t, ((busy >> t) & 1) != 0, now);
}

void
RtUnit::tick(std::uint64_t now)
{
    COOPRT_AUDIT(check_label_, "rtunit.monotone_tick", now,
                 now >= last_tick_,
                 "tick at " + std::to_string(now) + " after " +
                     std::to_string(last_tick_));
    assert(now >= last_tick_);
    last_tick_ = now;

    COOPRT_CHECK_ONLY(audit_issues_this_tick_ = 0;)
    if (prof_ != nullptr) {
        // Attribute the idle-skipped gap since the last tick from
        // the frozen pre-tick state, then start collecting this
        // tick's per-slot progress/steal events.
        profAccount(now, false);
        prof_progress_ = 0;
        prof_stolen_ = 0;
    }
    tryIssue(now);
    runLbu(now);
    processOneResponse(now);
    if (prof_ != nullptr)
        profAccount(now, true);
#if COOPRT_CHECK_ENABLED
    auditInvariants(now);
#endif
}

void
RtUnit::profAccount(std::uint64_t now, bool end_of_tick)
{
    // Earliest-ready outstanding response (and its serving level)
    // per slot, for response-starved attribution.
    std::array<std::uint64_t, 64> best;
    std::array<std::int8_t, 64> level{};
    best.fill(kNever);
    for (const Response &r : responses_) {
        if (r.ready < best[std::size_t(r.slot)]) {
            best[std::size_t(r.slot)] = r.ready;
            level[std::size_t(r.slot)] = r.level;
        }
    }

    COOPRT_CHECK_ONLY(std::uint64_t audit_expected = 0;)
    COOPRT_CHECK_ONLY(const std::uint64_t audit_before =
                          prof_->residentBucketSum();)

    for (std::size_t slot = 0; slot < warps_.size(); ++slot) {
        WarpEntry &w = warps_[slot];
        if (!w.valid)
            continue;
        std::uint64_t weight;
        if (end_of_tick) {
            if (w.prof_from > now)
                continue; // this cycle is already attributed
            weight = 1;
            w.prof_from = now + 1;
        } else {
            if (w.prof_from >= now)
                continue; // no idle-skipped gap to attribute
            weight = now - w.prof_from;
            w.prof_from = now;
        }
        COOPRT_CHECK_ONLY(audit_expected += weight;)

        // Seeded bug (check builds): this warp's cycles silently
        // vanish from the attribution — the class of defect
        // prof.bucket_conservation exists to catch.
        if (COOPRT_MUTATE(ProfMisattribution))
            continue;

        prof::WarpView v;
        v.coop = cfg_.coop;
        v.outstanding = w.outstanding;
        if (end_of_tick) {
            v.progressed = ((prof_progress_ >> slot) & 1) != 0;
            v.stole = ((prof_stolen_ >> slot) & 1) != 0;
        }
        const std::uint32_t ready = w.work & ~w.pend;
        bool fresh_ready = false;
        for (std::uint32_t m = ready; m != 0 && !fresh_ready; m &= m - 1) {
            const StackEntry &top =
                peekWork(w.th[std::size_t(std::countr_zero(m))]);
            fresh_ready =
                top.entry_t < geom::cullLimit(searchLimit(w, top.main));
        }
        v.any_stack_work = w.work != 0;
        v.has_ready = ready != 0;
        v.has_idle_lane = (~w.work & ~w.pend) != 0;
        v.ready_all_stale = v.has_ready && !fresh_ready;
        if (cfg_.coop && !v.has_ready) {
            // LBU-only progress: a legal helper/main pair in some
            // subwarp (exactly the runLbu selection criteria).
            const std::uint32_t helpers =
                ~w.work & (cfg_.helper_requires_idle ? ~w.pend : ~0u);
            const std::uint32_t mains = w.deep | (w.pend & w.work);
            for (int lo = 0; lo < kWarpSize && !v.lbu_eligible;
                 lo += cfg_.subwarp_size)
                v.lbu_eligible = (helpers & subwarpMask(lo)) != 0 &&
                                 (mains & subwarpMask(lo)) != 0;
        }
        if (w.outstanding > 0 && best[slot] != kNever)
            v.wait_level = prof::MemLevel(level[slot]);

        const prof::Phase phase =
            prof::phaseOf(w.prof_consumed, v.any_stack_work);
        prof_->add(prof::classify(v), phase, weight);

        // Exact thread-status cycle totals (the Fig. 4 axes).
        const ThreadStatusCounts c = laneStatus(w);
        prof_->threads.busy += c.busy * weight;
        prof_->threads.waiting += c.waiting * weight;
        prof_->threads.inactive += c.inactive * weight;
    }
    if (end_of_tick)
        prof_accounted_ = now;

    // Conservation: the pass must attribute exactly one bucket
    // increment per resident warp per covered cycle.
    COOPRT_AUDIT(check_label_, "prof.bucket_conservation", now,
                 prof_->residentBucketSum() - audit_before ==
                     audit_expected,
                 "attributed " +
                     std::to_string(prof_->residentBucketSum() -
                                    audit_before) +
                     " cycles but " +
                     std::to_string(audit_expected) +
                     " warp-resident cycles elapsed");
}

std::uint64_t
RtUnit::nextEventCycle(std::uint64_t now) const
{
    if (resident_ == 0)
        return kNever;

    for (const WarpEntry &w : warps_) {
        if (!w.valid)
            continue;
        if ((w.work & ~w.pend) != 0)
            return now; // issueable (or stale-droppable) work
        // LBU can move a node: a helper and a main anywhere in the
        // warp. Whole-warp rather than per-subwarp on purpose: a
        // finer test would skip no-op ticks, which the profiler and
        // rtunit.ticks_per_cycle observe.
        if (cfg_.coop &&
            (~w.work & (cfg_.helper_requires_idle ? ~w.pend : ~0u)) != 0 &&
            (w.deep | (w.pend & w.work)) != 0)
            return now;
    }

    if (!responses_.empty()) {
        const std::uint64_t r = responses_.front().ready;
        return r > now ? r : now;
    }

    // Resident warps with no work and no responses should have been
    // retired already; let the next tick clean them up.
    return now;
}

ThreadStatusCounts
RtUnit::threadStatus() const
{
    ThreadStatusCounts c;
    for (const WarpEntry &w : warps_) {
        if (!w.valid)
            continue;
        const ThreadStatusCounts l = laneStatus(w);
        c.busy += l.busy;
        c.waiting += l.waiting;
        c.inactive += l.inactive;
    }
    return c;
}

void
RtUnit::sharePredictor(const RtUnit &other)
{
    if (cfg_.intersection_predictor && other.predictor_)
        predictor_ = other.predictor_;
}

#if COOPRT_CHECK_ENABLED
void
RtUnit::auditInvariants(std::uint64_t now) const
{
    // Fig. 7 step 1: one coalesced node fetch per RT unit per cycle.
    COOPRT_AUDIT(check_label_, "rtunit.single_issue_per_cycle", now,
                 audit_issues_this_tick_ <= 1,
                 std::to_string(audit_issues_this_tick_) +
                     " fetches issued in one cycle");

    // Warp-buffer residency ledger and trace_ray conservation.
    int valid = 0;
    for (const WarpEntry &w : warps_)
        valid += w.valid ? 1 : 0;
    COOPRT_AUDIT(check_label_, "rtunit.resident_count", now,
                 valid == resident_,
                 "resident_=" + std::to_string(resident_) + " but " +
                     std::to_string(valid) + " valid entries");
    COOPRT_AUDIT(check_label_, "rtunit.warp_conservation", now,
                 audit_submitted_ ==
                     stats_.retired_warps + std::uint64_t(valid),
                 "submitted=" + std::to_string(audit_submitted_) +
                     " retired=" +
                     std::to_string(stats_.retired_warps) +
                     " resident=" + std::to_string(valid));

    // Response FIFO vs warp bookkeeping: every in-flight response
    // targets a live slot, per-slot outstanding counts match, and the
    // pending threads are exactly the consumers awaiting data.
    std::vector<int> fifo(warps_.size(), 0);
    std::vector<std::uint32_t> consumers(warps_.size(), 0);
    for (const Response &r : responses_) {
        const bool slot_ok = r.slot >= 0 &&
                             r.slot < int(warps_.size()) &&
                             warps_[std::size_t(r.slot)].valid;
        COOPRT_AUDIT(check_label_, "rtunit.response_slot_valid", now,
                     slot_ok,
                     "response (ready " + std::to_string(r.ready) +
                         ") targets dead slot " +
                         std::to_string(r.slot));
        if (!slot_ok)
            continue;
        fifo[std::size_t(r.slot)]++;
        consumers[std::size_t(r.slot)] |= r.consumers;
    }

    for (std::size_t i = 0; i < warps_.size(); ++i) {
        const WarpEntry &w = warps_[i];
        if (!w.valid) {
            COOPRT_AUDIT(check_label_,
                         "rtunit.outstanding_matches_fifo", now,
                         fifo[i] == 0,
                         "slot " + std::to_string(i) +
                             " invalid but has " +
                             std::to_string(fifo[i]) + " responses");
            continue;
        }
        COOPRT_AUDIT(check_label_, "rtunit.outstanding_matches_fifo",
                     now, w.outstanding == fifo[i],
                     "slot " + std::to_string(i) + " outstanding=" +
                         std::to_string(w.outstanding) + " but " +
                         std::to_string(fifo[i]) +
                         " responses in flight");

        std::uint32_t pending_mask = 0, audit_work = 0,
                      audit_deep = 0;
        for (int t = 0; t < kWarpSize; ++t) {
            const ThreadState &th = w.th[std::size_t(t)];
            pending_mask |= th.pending ? 1u << t : 0u;
            audit_work |= th.stack.size() > 0 ? 1u << t : 0u;
            audit_deep |= th.stack.size() > 1 ? 1u << t : 0u;
        }
        COOPRT_AUDIT(check_label_, "rtunit.pending_matches_responses",
                     now, pending_mask == consumers[i],
                     "slot " + std::to_string(i) + " pending mask " +
                         std::to_string(pending_mask) +
                         " != consumer union " +
                         std::to_string(consumers[i]));

        // The lane masks mirror the stacks and pending flags they
        // summarize, and every clean lane's TOS is fresh (the
        // dirty-lane stale check's exactness premise).
        std::uint32_t stale_clean = 0;
        for (std::uint32_t m = w.work & ~w.dirty & audit_work; m != 0;
             m &= m - 1) {
            const int t = std::countr_zero(m);
            const StackEntry &top = peekWork(w.th[std::size_t(t)]);
            if (top.entry_t >= geom::cullLimit(searchLimit(w, top.main)))
                stale_clean |= 1u << t;
        }
        COOPRT_AUDIT(check_label_, "rtunit.lane_masks_consistent", now,
                     w.work == audit_work && w.deep == audit_deep &&
                         w.pend == pending_mask && stale_clean == 0,
                     "slot " + std::to_string(i) + " work " +
                         std::to_string(w.work) + "/" +
                         std::to_string(audit_work) + " deep " +
                         std::to_string(w.deep) + "/" +
                         std::to_string(audit_deep) + " pend " +
                         std::to_string(w.pend) + "/" +
                         std::to_string(pending_mask) +
                         " stale clean lanes " +
                         std::to_string(stale_clean));

        for (int t = 0; t < kWarpSize; ++t) {
            const ThreadState &th = w.th[std::size_t(t)];

            COOPRT_AUDIT(check_label_, "rtunit.stack_depth_bound",
                         now, th.stack.size() <= check_stack_bound_,
                         "slot " + std::to_string(i) + " thread " +
                             std::to_string(t) + " stack depth " +
                             std::to_string(th.stack.size()) +
                             " > bound " +
                             std::to_string(check_stack_bound_));

            for (std::size_t k = 0; k < th.stack.size(); ++k) {
                const StackEntry &e = th.stack[k];
                const int m = e.main;
                // Helpers may only hold work of an active ray owned
                // inside their own subwarp (their own tid when the
                // LBU is off).
                const bool scope_ok =
                    m >= 0 && m < kWarpSize &&
                    w.th[std::size_t(m)].active &&
                    (cfg_.coop ? m / cfg_.subwarp_size ==
                                     t / cfg_.subwarp_size
                               : m == t);
                COOPRT_AUDIT(check_label_, "rtunit.stack_owner_scope",
                             now, scope_ok,
                             "slot " + std::to_string(i) +
                                 " thread " + std::to_string(t) +
                                 " holds entry owned by " +
                                 std::to_string(m));
                const bool ref_ok =
                    e.ref.isLeaf()
                        ? e.ref.firstSlot() + e.ref.primCount() <=
                              bvh_.primCount()
                        : e.ref.nodeIndex() < bvh_.nodeCount();
                COOPRT_AUDIT(check_label_, "rtunit.stack_ref_valid",
                             now, ref_ok,
                             "slot " + std::to_string(i) +
                                 " thread " + std::to_string(t) +
                                 " ref raw " +
                                 std::to_string(e.ref.raw()));
            }

            // Hit-state consistency: the min_thit register and the
            // hit record move together (Section 5.3's invariant that
            // helpers update the main thread's registers).
            const float mt = w.min_thit[std::size_t(t)];
            const geom::HitRecord &rec = w.hit[std::size_t(t)];
            const bool hit_ok =
                th.active ? (rec.hit() == (mt != geom::kNoHit) &&
                             (!rec.hit() || mt <= rec.thit))
                          : (!rec.hit() && mt == geom::kNoHit);
            COOPRT_AUDIT(check_label_, "rtunit.hit_state_consistent",
                         now, hit_ok,
                         "slot " + std::to_string(i) + " thread " +
                             std::to_string(t) + " min_thit=" +
                             std::to_string(mt) + " rec.thit=" +
                             std::to_string(rec.thit));
        }
    }
}
#endif // COOPRT_CHECK_ENABLED

} // namespace cooprt::rtunit
