/**
 * @file
 * Ray representation used by both the functional tracer and the RT-unit
 * timing model.
 */

#ifndef COOPRT_GEOM_RAY_HPP
#define COOPRT_GEOM_RAY_HPP

#include <cstdint>
#include <limits>

#include "geom/vec3.hpp"

namespace cooprt::geom {

/** Sentinel hit distance meaning "no hit found yet". */
constexpr float kNoHit = std::numeric_limits<float>::infinity();

/** Closest-hit search limit @p t widened by a relative 1e-5, for
 *  culling boxes and stale stack entries: a slab test can place a
 *  box's entry an ulp beyond a hit inside it (DESIGN.md section 6). */
inline float
cullLimit(float t)
{
    return t * (1.0f + 1e-5f);
}

/** Accept a hit at @p t on @p prim when nearer than @p limit, or tied
 *  with it and of lower id than the current @p best_prim, so the
 *  closest hit is independent of visit order (DESIGN.md section 6). */
inline bool
closerHit(float t, std::uint32_t prim, float limit,
          std::uint32_t best_prim)
{
    return t < limit || (t == limit && prim < best_prim);
}

/**
 * A ray with origin, direction and a valid parametric interval.
 *
 * The reciprocal direction is precomputed once per ray, as done by real
 * RT units, so that each slab test costs multiplies instead of divides.
 * Zero direction components yield +/-inf reciprocals, which the slab
 * test handles correctly (IEEE semantics).
 */
struct Ray
{
    Vec3 orig;
    Vec3 dir;
    /** Component-wise reciprocal of dir, cached for slab tests. */
    Vec3 inv_dir;
    /** Minimum valid hit distance (used to avoid self-intersection). */
    float tmin = 1e-4f;
    /** Maximum valid hit distance (shadow/AO rays use a finite value). */
    float tmax = kNoHit;

    Ray() = default;

    Ray(const Vec3 &o, const Vec3 &d, float t_min = 1e-4f,
        float t_max = kNoHit)
        : orig(o), dir(d), tmin(t_min), tmax(t_max)
    {
        // Nudge exactly-zero components so the reciprocal stays finite
        // and the slab test never produces 0 * inf = NaN.
        auto safe = [](float c) { return c == 0.0f ? 1e-30f : c; };
        inv_dir = {1.0f / safe(d.x), 1.0f / safe(d.y), 1.0f / safe(d.z)};
    }

    /** Point along the ray at parameter @p t. */
    Vec3 at(float t) const { return orig + dir * t; }

    /**
     * True for a zero-direction *query* ray (k-NN / containment
     * workloads): the stored direction is kept exactly as given, so
     * all-zero components identify a point query unambiguously. The
     * slab test switches to a point-to-box distance for these rays
     * instead of relying on the 1e-30 reciprocal nudge.
     */
    bool
    degenerate() const
    {
        return dir.x == 0.0f && dir.y == 0.0f && dir.z == 0.0f;
    }
};

/**
 * Result of a closest-hit query: hit distance plus enough information
 * for the shading stage (primitive id, geometric normal).
 */
struct HitRecord
{
    /** Hit distance, or kNoHit when the ray missed. */
    float thit = kNoHit;
    /** Index of the hit primitive within the scene, or UINT32_MAX. */
    std::uint32_t prim_id = 0xffffffffu;
    /** Geometric normal at the hit point (unit length, front-facing). */
    Vec3 normal;

    bool hit() const { return thit != kNoHit; }
};

} // namespace cooprt::geom

#endif // COOPRT_GEOM_RAY_HPP
