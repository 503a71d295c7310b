/**
 * @file
 * Pinned end-to-end cycle counts. These exact values were captured
 * from the repository's reference build and pin the timing model
 * bit-for-bit: *any* change to reported cycles — including from code
 * that claims to be purely observational (tracing, COOPRT_CHECK
 * audits) — fails here and must be an explicit, reviewed re-pin.
 *
 * The default build and the COOPRT_CHECK build must both pass this
 * file unchanged; that is the audit layer's zero-perturbation proof.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

core::RunOutcome
runPinned(const std::string &scene, int resolution,
          core::ShaderKind shader, bool coop,
          raytrace::Recorder *ray = nullptr,
          memscope::Collector *mscope = nullptr,
          telemetry::Recorder *telem = nullptr)
{
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    cfg.ray_recorder = ray;
    cfg.memscope = mscope;
    cfg.telemetry = telem;
    return core::simulationFor(scene).run(cfg);
}

TEST(PinnedCycles, WkndPathTracingBaseline)
{
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 2430u);
    EXPECT_EQ(out.gpu.rt.box_tests, 45996u);
    EXPECT_EQ(out.gpu.rt.tri_tests, 11363u);
    EXPECT_EQ(out.gpu.rt.steals, 0u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 844u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 11839u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
}

TEST(PinnedCycles, WkndPathTracingCoop)
{
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 6060u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 3028u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 155u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoop)
{
    const auto out = runPinned(
        "bunny", 24, core::ShaderKind::AmbientOcclusion, true);
    EXPECT_EQ(out.gpu.cycles, 17241u);
    EXPECT_EQ(out.gpu.rt.steals, 5114u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaseline)
{
    const auto out =
        runPinned("ship", 24, core::ShaderKind::Shadow, false);
    EXPECT_EQ(out.gpu.cycles, 36232u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5120u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
}

// The ray-provenance recorder claims to be purely observational; the
// pins below repeat two coop and one base run with a recorder
// attached and demand the exact same cycle counts as above.

TEST(PinnedCycles, WkndPathTracingCoopWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               &ray);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_TRUE(out.gpu.ray_summary.enabled);
    EXPECT_GT(ray.stats().rays_sampled, 0u);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out = runPinned(
        "bunny", 24, core::ShaderKind::AmbientOcclusion, true, &ray);
    EXPECT_EQ(out.gpu.cycles, 17241u);
    EXPECT_EQ(out.gpu.rt.steals, 5114u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaselineWithRayRecorder)
{
    raytrace::Recorder ray;
    const auto out =
        runPinned("ship", 24, core::ShaderKind::Shadow, false, &ray);
    EXPECT_EQ(out.gpu.cycles, 36232u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5120u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
}

// The memscope collector also claims to be purely observational; the
// four seed pins are repeated with memscope attached and must report
// the exact same cycle counts, plus a profiler/counter cross-check:
// every RT-unit node or leaf fetch is exactly one memscope record.

std::uint64_t
memscopeAccesses(const memscope::Collector &mscope)
{
    std::uint64_t total = 0;
    for (int i = 0; i < mscope.unitCount(); ++i)
        total += mscope.unitAt(i).accesses;
    return total;
}

TEST(PinnedCycles, WkndPathTracingBaselineWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false,
                               nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.rt.leaf_fetches, 2430u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
    EXPECT_TRUE(out.gpu.memscope_summary.enabled);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, WkndPathTracingCoopWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithMemscope)
{
    memscope::Collector mscope;
    const auto out =
        runPinned("bunny", 24, core::ShaderKind::AmbientOcclusion,
                  true, nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 17241u);
    EXPECT_EQ(out.gpu.rt.steals, 5114u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

TEST(PinnedCycles, ShipShadowBaselineWithMemscope)
{
    memscope::Collector mscope;
    const auto out = runPinned("ship", 24, core::ShaderKind::Shadow,
                               false, nullptr, &mscope);
    EXPECT_EQ(out.gpu.cycles, 36232u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5120u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
    EXPECT_EQ(memscopeAccesses(mscope),
              out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches);
}

// The host-telemetry recorder watches the simulator process (wall
// clock, RSS), not the simulated machine; the four seed pins are
// repeated with a recorder attached and must report the exact same
// cycle counts, while the telemetry summary's deterministic fields
// must mirror the outcome.

TEST(PinnedCycles, WkndPathTracingBaselineWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, false,
                               nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 34868u);
    EXPECT_EQ(out.gpu.rt.node_fetches, 4545u);
    EXPECT_EQ(out.gpu.l1.accesses, 10863u);
    EXPECT_EQ(out.gpu.dram.bytes, 158336u);
    EXPECT_EQ(out.gpu.stalls.rt, 310412u);
    EXPECT_TRUE(out.telemetry.enabled);
    EXPECT_EQ(out.telemetry.cycles, out.gpu.cycles);
    EXPECT_EQ(out.telemetry.retired_warps, out.gpu.rt.retired_warps);
}

TEST(PinnedCycles, WkndPathTracingCoopWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("wknd", 32,
                               core::ShaderKind::PathTracing, true,
                               nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 18756u);
    EXPECT_EQ(out.gpu.rt.steals, 3750u);
    EXPECT_EQ(out.gpu.rt.max_trace_latency, 6188u);
    EXPECT_EQ(out.gpu.dram.bytes, 202624u);
    EXPECT_EQ(out.telemetry.cycles, out.gpu.cycles);
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out =
        runPinned("bunny", 24, core::ShaderKind::AmbientOcclusion,
                  true, nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 17241u);
    EXPECT_EQ(out.gpu.rt.steals, 5114u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 78u);
    EXPECT_EQ(out.telemetry.retired_warps, 78u);
}

TEST(PinnedCycles, ShipShadowBaselineWithTelemetry)
{
    telemetry::Recorder telem;
    const auto out = runPinned("ship", 24, core::ShaderKind::Shadow,
                               false, nullptr, nullptr, &telem);
    EXPECT_EQ(out.gpu.cycles, 36232u);
    EXPECT_EQ(out.gpu.rt.stale_pops, 5120u);
    EXPECT_EQ(out.gpu.rt.retired_warps, 50u);
    EXPECT_EQ(out.telemetry.cycles, 36232u);
}

} // namespace
