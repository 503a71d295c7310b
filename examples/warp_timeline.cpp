/**
 * @file
 * Visualize one warp's trace_ray execution as per-thread busy bars —
 * the paper's Fig. 11 — for the baseline RT unit and for CoopRT.
 *
 * In the baseline rendering, only the lanes that own long rays show
 * long bars; with CoopRT, idle lanes fill with stolen work and the
 * whole block shortens.
 *
 *   ./warp_timeline [scene-label] [columns]
 */

#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "core/simulation.hpp"

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
                     "usage: warp_timeline [scene] [columns] [skip]\n");
        return 1;
    }
    const core::Simulation &sim = core::simulationFor(label);

    for (bool coop : {false, true}) {
        core::RunConfig cfg;
        cfg.gpu.trace.coop = coop;
        stats::TimelineRecorder rec(rtunit::kWarpSize);
        sim.run(cfg, nullptr, &rec, skip);

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
