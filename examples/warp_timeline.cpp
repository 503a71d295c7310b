/**
 * @file
 * Visualize one warp's trace_ray execution as per-thread busy bars —
 * the paper's Fig. 11 — for the baseline RT unit and for CoopRT.
 *
 * In the baseline rendering, only the lanes that own long rays show
 * long bars; with CoopRT, idle lanes fill with stolen work and the
 * whole block shortens. The warp is captured by the ray-provenance
 * recorder on SM 0 after @c skip trace_rays, and its lane edges are
 * replayed with raytrace::laneTimeline (as fig11_warp_timeline does).
 * Exits 1 when SM 0 never reaches the requested skip.
 *
 *   ./warp_timeline [scene-label] [columns] [skip]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/observers.hpp"

int
main(int argc, char **argv)
{
    using namespace cooprt;

    const std::string label = argc > 1 ? argv[1] : "bath";
    const int columns = argc > 2 ? cli::argNumber("columns", argv[2], 10)
                                 : 100;
    // Skip past the coherent primary traces to a divergent late
    // bounce, like the paper's Fig. 11 warp.
    const int skip = argc > 3 ? cli::argNumber("skip", argv[3], 0) : 40;
    if (!scene::SceneRegistry::has(label)) {
        std::fprintf(stderr,
                     "warp_timeline: unknown scene '%s'\n"
                     "usage: warp_timeline [scene] [columns] [skip]\n",
                     label.c_str());
        return 2;
    }
    const core::Simulation &sim = core::simulationFor(label);

    for (bool coop : {false, true}) {
        core::RunConfig cfg;
        cfg.gpu.trace.coop = coop;
        core::ObserverSpec spec{.ray = true};
        spec.ray_config.sample_k = rtunit::kWarpSize;
        spec.ray_config.warp_skip = std::uint64_t(skip);
        spec.ray_config.max_warps_per_unit = 1;
        spec.ray_config.lane_timeline = true;
        core::ObserverSet obs(spec, cfg);
        obs.attach(cfg);
        sim.run(cfg);

        const std::vector<raytrace::WarpRecord> &sm0 =
            obs.ray()->unit(0).warps();
        if (sm0.empty()) {
            std::fprintf(stderr,
                         "warp_timeline: no trace_ray on SM 0 after "
                         "skipping %d\n",
                         skip);
            return 1;
        }
        const stats::TimelineRecorder rec = raytrace::laneTimeline(sm0[0]);

        std::printf("\n%s, scene %s — one trace_ray on SM 0 "
                    "('#' = non-empty traversal stack):\n",
                    coop ? "CoopRT" : "Baseline", label.c_str());
        std::printf("  span %llu cycles, average lane utilization "
                    "%.1f%%\n",
                    static_cast<unsigned long long>(rec.lastCycle() -
                                                    rec.firstCycle()),
                    100.0 * rec.averageUtilization());
        std::fputs(rec.render(columns).c_str(), stdout);
    }
    return 0;
}
