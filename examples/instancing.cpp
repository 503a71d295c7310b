/**
 * @file
 * Two-level acceleration structures (TLAS/BLAS) through the public
 * API: build one tree BLAS, stamp a forest of rigid-transformed
 * instances, query it directly, then flatten it into a single-level
 * scene and measure how much CoopRT accelerates tracing it.
 *
 *   ./instancing [instances]
 */

#include <cstdio>

#include "bvh/tlas.hpp"
#include "core/cli.hpp"
#include "core/simulation.hpp"
#include "geom/rng.hpp"
#include "scene/generators.hpp"
#include "scene/primitives.hpp"
#include "shaders/film.hpp"

int
main(int argc, char **argv)
{
    using namespace cooprt;

    const int count = argc > 1 ? cli::argNumber("instances", argv[1], 1) : 60;

    // 1. One detailed tree as the bottom-level structure.
    scene::Scene proto = scene::makeTreeScene("tree", 7, 120);
    auto blas = std::make_shared<bvh::Blas>(proto.mesh);

    // 2. A forest of instances, each a rotation + translation.
    bvh::Tlas tlas;
    const std::uint32_t b = tlas.addBlas(blas);
    geom::Pcg32 rng(11);
    for (int i = 0; i < count; ++i)
        tlas.addInstance(
            {b, geom::RigidTransform::rotateYTranslate(
                    rng.nextRange(-3.14f, 3.14f),
                    {rng.nextRange(-60, 60), 0,
                     rng.nextRange(-60, 60)})});
    tlas.build();

    std::printf("forest: %zu instances of a %zu-triangle tree\n",
                tlas.instanceCount(), blas->mesh.size());
    std::printf("  instanced triangles: %zu, stored once: %zu "
                "(%.0fx memory saving)\n",
                tlas.instancedTriangles(), tlas.storedTriangles(),
                double(tlas.instancedTriangles()) /
                    double(tlas.storedTriangles()));

    // 3. Query the two-level structure directly.
    int hits = 0;
    const int probes = 2000;
    for (int i = 0; i < probes; ++i) {
        geom::Ray r({rng.nextRange(-60, 60), rng.nextRange(1, 6),
                     rng.nextRange(-60, 60)},
                    rng.nextUnitVector());
        hits += tlas.closestHit(r).valid();
    }
    std::printf("  random probe hit rate: %.1f%%\n",
                100.0 * hits / probes);

    // 4. Flatten for the timing simulator (which traces single-level
    //    BVHs) and measure the CoopRT benefit on the instanced scene.
    scene::Scene flat_scene;
    flat_scene.name = "forest";
    flat_scene.materials = proto.materials;
    for (std::uint32_t i = 0; i < tlas.instanceCount(); ++i) {
        const auto &inst = tlas.instance(i);
        const auto &mesh = tlas.blasOf(inst).mesh;
        for (std::uint32_t t = 0; t < mesh.size(); ++t) {
            const geom::Triangle &tri = mesh.tri(t);
            flat_scene.mesh.addTriangle(
                {inst.to_world.point(tri.v0),
                 inst.to_world.point(tri.v1),
                 inst.to_world.point(tri.v2)},
                mesh.materialOf(t));
        }
    }
    scene::addQuad(flat_scene.mesh, {-80, 0, -80}, {160, 0, 0},
                   {0, 0, 160});
    flat_scene.sky_emission = 1.0f;
    flat_scene.camera = scene::Camera({70, 10, 70}, {0, 4, 0},
                                      {0, 1, 0}, 50.0f);
    flat_scene.default_resolution = 40;

    core::Simulation sim(flat_scene);
    core::RunConfig cfg;
    const auto base = sim.run(cfg);
    cfg.gpu.trace.coop = true;
    const auto coop = sim.run(cfg);
    std::printf("flattened scene: %zu triangles, BVH %.1f MiB\n",
                flat_scene.mesh.size(), sim.treeStats().sizeMiB());
    std::printf("  baseline %llu cycles -> CoopRT %llu cycles "
                "(%.2fx)\n",
                static_cast<unsigned long long>(base.gpu.cycles),
                static_cast<unsigned long long>(coop.gpu.cycles),
                double(base.gpu.cycles) / double(coop.gpu.cycles));
    return 0;
}
