/**
 * @file
 * Critical-path attribution tests: every cycle of a sampled warp's
 * lifetime lands in exactly one stall-taxonomy bucket, and the
 * whole-GPU report picks each SM's slowest sampled warp.
 */

#include <numeric>
#include <sstream>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "raytrace/raytrace.hpp"

#include "../core/outcome_digest.hpp"
#include "../rtunit/rtunit_test_util.hpp"

namespace {

using namespace cooprt;
using raytrace::CriticalPathEntry;
using raytrace::RecorderConfig;
using raytrace::UnitRecorder;
using rtunit::TraceConfig;
using testutil::RtHarness;

std::uint64_t
bucketSum(const CriticalPathEntry &e)
{
    return std::accumulate(e.buckets.begin(), e.buckets.end(),
                           std::uint64_t(0));
}

TEST(CriticalPath, BucketSumEqualsWarpLatency)
{
    for (const bool coop : {false, true}) {
        RecorderConfig rcfg;
        rcfg.sample_k = 4;
        UnitRecorder rec(0, &rcfg);
        TraceConfig tcfg;
        tcfg.coop = coop;
        RtHarness h(testutil::makeSoup(8, 2000), tcfg);
        h.unit.attachRayTrace(&rec);
        h.runOne(testutil::frontalJob(rtunit::kWarpSize));

        ASSERT_EQ(rec.warps().size(), 1u);
        const CriticalPathEntry e =
            raytrace::attributeCriticalPath(rec.warps()[0]);
        EXPECT_EQ(bucketSum(e), e.latency())
            << "attribution must be exhaustive and exclusive "
               "(coop=" << coop << ")";
        EXPECT_GE(e.blocking_lane, 0);
        EXPECT_LE(e.retire_cycle, rec.warps()[0].retire_cycle);
    }
}

TEST(CriticalPath, WholeGpuReportPicksSlowestPerSm)
{
    raytrace::Recorder ray;
    core::RunConfig cfg;
    cfg.shader = core::ShaderKind::AmbientOcclusion;
    cfg.resolution = 16;
    cfg.ray_recorder = &ray;
    const core::RunOutcome out = core::simulationFor("wknd").run(cfg);

    ASSERT_TRUE(out.gpu.ray_summary.enabled);
    const raytrace::CriticalPathReport report = ray.criticalPath();
    ASSERT_FALSE(report.per_sm.empty());
    for (const auto &e : report.per_sm) {
        EXPECT_EQ(bucketSum(e), e.latency());
        // The reported warp really is the slowest sampled one on its
        // SM.
        const raytrace::WarpRecord *slowest = ray.slowestWarp(e.sm);
        ASSERT_NE(slowest, nullptr);
        EXPECT_EQ(e.latency(), slowest->latency());
    }
    const CriticalPathEntry *top = report.slowest();
    ASSERT_NE(top, nullptr);
    for (const auto &e : report.per_sm)
        EXPECT_LE(e.latency(), top->latency());

    // The summary carried into the run outcome mirrors the report.
    ASSERT_EQ(out.gpu.ray_summary.critical.size(),
              report.per_sm.size());
    for (std::size_t i = 0; i < report.per_sm.size(); ++i)
        EXPECT_EQ(out.gpu.ray_summary.critical[i].latency(),
                  report.per_sm[i].latency());

    std::ostringstream ss;
    raytrace::writeCriticalPath(ss, report);
    EXPECT_NE(ss.str().find("slowest:"), std::string::npos);
    EXPECT_NE(ss.str().find("starved_dram"), std::string::npos);
}

TEST(CriticalPath, RecorderIsObservationOnly)
{
    // Attaching the recorder must not change the simulated outcome:
    // the same config with and without it has the same digest.
    core::RunConfig cfg;
    cfg.shader = core::ShaderKind::AmbientOcclusion;
    cfg.resolution = 16;
    cfg.gpu.trace.coop = true;
    const core::RunOutcome plain =
        core::simulationFor("bunny").run(cfg);

    raytrace::Recorder ray;
    cfg.ray_recorder = &ray;
    const core::RunOutcome recorded =
        core::simulationFor("bunny").run(cfg);

    EXPECT_EQ(testutil::outcomeDigest(plain),
              testutil::outcomeDigest(recorded));
    EXPECT_GT(ray.stats().rays_sampled, 0u);
}

} // namespace
