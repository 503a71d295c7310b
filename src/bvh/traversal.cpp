#include "bvh/traversal.hpp"

#include <algorithm>
#include <vector>

namespace cooprt::bvh {

using geom::HitRecord;
using geom::kNoHit;
using geom::Ray;

namespace {

/** Intersect the primitives of leaf @p ref; update @p rec. */
void
testLeaf(const FlatBvh &bvh, const scene::Mesh &mesh, const Ray &ray,
         NodeRef ref, HitRecord &rec, TraversalStats *stats)
{
    for (std::uint32_t k = 0; k < ref.primCount(); ++k) {
        const std::uint32_t prim = bvh.primAt(ref.firstSlot() + k);
        if (stats)
            stats->tri_tests++;
        const float t = mesh.tri(prim).intersect(ray, kNoHit);
        if (t != kNoHit && geom::closerHit(t, prim, rec.thit, rec.prim_id)) {
            rec.thit = t;
            rec.prim_id = prim;
            rec.normal = mesh.tri(prim).shadingNormal(ray.dir);
        }
    }
}

} // namespace

HitRecord
closestHit(const FlatBvh &bvh, const scene::Mesh &mesh, const Ray &ray,
           TraversalStats *stats)
{
    HitRecord rec;
    if (bvh.empty() && bvh.primCount() == 0)
        return rec;

    // Algorithm 1 line 1: test the root AABB first.
    if (bvh.rootBounds().intersect(ray, ray.tmax) == kNoHit)
        return rec;

    std::vector<NodeRef> stack;
    stack.push_back(bvh.root());

    while (!stack.empty()) {
        if (stats)
            stats->max_stack_depth =
                std::max<std::uint64_t>(stats->max_stack_depth,
                                        stack.size());
        const NodeRef node = stack.back();
        stack.pop_back();

        if (node.isLeaf()) {
            if (stats)
                stats->leaves_visited++;
            testLeaf(bvh, mesh, ray, node, rec, stats);
            continue;
        }

        if (stats)
            stats->nodes_visited++;
        const int n = bvh.childCount(node);
        for (int i = 0; i < n; ++i) {
            const ChildInfo c = bvh.child(node, i);
            if (stats)
                stats->box_tests++;
            // Algorithm 1 line 8: push only children whose entry
            // distance beats the current closest hit (conservatively).
            if (c.box.intersect(ray, geom::cullLimit(rec.thit)) != kNoHit)
                stack.push_back(c.ref);
        }
    }
    return rec;
}

bool
anyHit(const FlatBvh &bvh, const scene::Mesh &mesh, const Ray &ray,
       TraversalStats *stats)
{
    if (bvh.empty() && bvh.primCount() == 0)
        return false;
    if (bvh.rootBounds().intersect(ray, ray.tmax) == kNoHit)
        return false;

    std::vector<NodeRef> stack;
    stack.push_back(bvh.root());

    while (!stack.empty()) {
        const NodeRef node = stack.back();
        stack.pop_back();

        if (node.isLeaf()) {
            if (stats)
                stats->leaves_visited++;
            for (std::uint32_t k = 0; k < node.primCount(); ++k) {
                const std::uint32_t prim =
                    bvh.primAt(node.firstSlot() + k);
                if (stats)
                    stats->tri_tests++;
                if (mesh.tri(prim).intersect(ray, ray.tmax) != kNoHit)
                    return true;
            }
            continue;
        }

        if (stats)
            stats->nodes_visited++;
        const int n = bvh.childCount(node);
        for (int i = 0; i < n; ++i) {
            const ChildInfo c = bvh.child(node, i);
            if (stats)
                stats->box_tests++;
            if (c.box.intersect(ray, ray.tmax) != kNoHit)
                stack.push_back(c.ref);
        }
    }
    return false;
}

HitRecord
bruteForceClosest(const scene::Mesh &mesh, const Ray &ray)
{
    HitRecord rec;
    for (std::uint32_t i = 0; i < mesh.size(); ++i) {
        const float t = mesh.tri(i).intersect(ray, rec.thit);
        if (t != kNoHit) {
            rec.thit = t;
            rec.prim_id = i;
            rec.normal = mesh.tri(i).shadingNormal(ray.dir);
        }
    }
    return rec;
}

} // namespace cooprt::bvh
