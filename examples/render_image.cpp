/**
 * @file
 * Render a benchmark scene to a PPM image — twice.
 *
 * First with the functional reference path tracer, then through the
 * cycle-level GPU simulation with CoopRT enabled, demonstrating the
 * paper's functional-correctness property end to end: the two images
 * (and a baseline RT-unit render) are bit-identical, because
 * cooperative traversal never changes which primitive a ray hits.
 *
 *   ./render_image [scene-label] [resolution] [spp]
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "core/simulation.hpp"

int
main(int argc, char **argv)
{
    using namespace cooprt;

    const std::string label = argc > 1 ? argv[1] : "spnza";
    const int res = argc > 2 ? cli::argNumber("resolution", argv[2], 1) : 96;
    const int spp = argc > 3 ? cli::argNumber("spp", argv[3], 1) : 4;
    if (!scene::SceneRegistry::has(label)) {
        std::fprintf(stderr,
                     "usage: render_image [scene] [resolution] [spp]\n");
        return 1;
    }

    const core::Simulation &sim = core::simulationFor(label);

    // Functional reference render (multi-sample for a cleaner image).
    shaders::Film reference(res, res);
    shaders::PtParams params;
    renderReference(sim.scene(), sim.bvh(), reference, spp, params);
    const std::string ref_path = label + "_reference.ppm";
    reference.writePpm(ref_path);
    std::printf("wrote %s (avg luminance %.3f)\n", ref_path.c_str(),
                reference.averageLuminance());

    // The same frame executed instruction-by-instruction in the
    // timing simulator with CoopRT on (1 spp).
    core::RunConfig cfg;
    cfg.resolution = res;
    cfg.gpu.trace.coop = true;
    shaders::Film simulated(res, res);
    core::RunOutcome out = sim.run(cfg, &simulated);
    const std::string sim_path = label + "_cooprt.ppm";
    simulated.writePpm(sim_path);
    std::printf("wrote %s (simulated %llu cycles, %.2f ms on a "
                "1.365 GHz GPU)\n",
                sim_path.c_str(),
                static_cast<unsigned long long>(out.gpu.cycles),
                out.power.seconds * 1e3);

    // Cross-check: the 1-spp reference must match the timing render
    // exactly (same RNG streams, same traversal results).
    shaders::Film ref1(res, res);
    renderReference(sim.scene(), sim.bvh(), ref1, 1, params);
    double max_diff = 0.0;
    for (int y = 0; y < res; ++y)
        for (int x = 0; x < res; ++x) {
            const auto d = ref1.pixel(x, y) - simulated.pixel(x, y);
            max_diff = std::max({max_diff, std::abs(double(d.x)),
                                 std::abs(double(d.y)),
                                 std::abs(double(d.z))});
        }
    std::printf("max |reference - simulated| over all pixels: %g %s\n",
                max_diff, max_diff < 1e-5 ? "(identical)" : "(DIFFERS!)");
    return max_diff < 1e-5 ? 0 : 2;
}
