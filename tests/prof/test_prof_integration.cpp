/**
 * @file
 * End-to-end tests of the stall-attribution profiler on real
 * simulation runs: exact conservation on every registry scene, zero
 * timing perturbation against the golden-outcome table, the
 * folded-stack golden file, and the prof.* metrics-CSV columns.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../core/outcome_digest.hpp"
#include "../trace/json_check.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "prof/prof.hpp"
#include "trace/session.hpp"

namespace {

using namespace cooprt;
using prof::Bucket;

core::RunOutcome
runProfiled(prof::Profiler &profiler, const std::string &scene,
            int resolution, bool coop,
            core::ShaderKind shader = core::ShaderKind::PathTracing)
{
    core::RunConfig cfg;
    cfg.resolution = resolution;
    cfg.shader = shader;
    cfg.gpu.trace.coop = coop;
    cfg.profiler = &profiler;
    return core::simulationFor(scene).run(cfg);
}

/** The taxonomy's accounting identities for one profiled run. */
void
expectConservation(const core::RunOutcome &out, const char *what)
{
    const auto &p = out.gpu.prof_summary;
    ASSERT_TRUE(p.enabled) << what;
    // Every warp-resident cycle lands in exactly one bucket, so the
    // bucket sum equals the aggregated trace latency exactly ...
    std::uint64_t resident_sum = 0;
    for (int b = 0; b < prof::kNumBuckets; ++b)
        if (Bucket(b) != Bucket::WarpBufferFull)
            resident_sum += p.buckets[std::size_t(b)];
    EXPECT_EQ(resident_sum, p.resident_cycles) << what;
    EXPECT_EQ(p.resident_cycles, out.gpu.rt.retired_trace_latency)
        << what;
    // ... and, with the SM-side warp-buffer waits added, the
    // class-level RT stall counter (same quantities, two ledgers).
    EXPECT_EQ(p.rtStallCycles(), out.gpu.stalls.rt) << what;
}

TEST(ProfIntegration, PinnedCyclesUnchangedWithProfiler)
{
    // The profiler is purely observational: the profiled run matches
    // the pinned outcome of its golden row bit-for-bit.
    prof::Profiler profiler;
    const auto out = runProfiled(profiler, "wknd", 32, false);
    EXPECT_EQ(testutil::outcomeDigest(out),
              testutil::golden("wknd_pt32_base").digest);
    expectConservation(out, "wknd@32 pt baseline");
    EXPECT_GT(out.gpu.prof_summary.of(Bucket::IssueCompute), 0u);
}

TEST(ProfIntegration, ConservationOnEveryRegistryScene)
{
    // Acceptance criterion: sum(stall buckets) == warp-resident
    // cycles exactly — for every scene, baseline and CoopRT.
    prof::Profiler profiler;
    for (const auto &label : scene::SceneRegistry::allLabels())
        for (const bool coop : {false, true}) {
            const auto out = runProfiled(profiler, label, 16, coop);
            const std::string what =
                label + (coop ? " coop" : " base");
            expectConservation(out, what.c_str());
        }
}

TEST(ProfIntegration, CoopShiftsStarvationIntoStealsAndDrain)
{
    // The taxonomy must tell the paper's causal story: CoopRT
    // converts memory-starved warp cycles into LBU activity and a
    // terminal subwarp drain (which only exists with helpers).
    prof::Profiler profiler;
    const auto base = runProfiled(profiler, "wknd", 32, false);
    const auto &pb = base.gpu.prof_summary;
    EXPECT_EQ(pb.of(Bucket::LbuSteal), 0u);
    EXPECT_EQ(pb.of(Bucket::SubwarpDrain), 0u);

    const auto coop = runProfiled(profiler, "wknd", 32, true);
    const auto &pc = coop.gpu.prof_summary;
    EXPECT_GT(pc.of(Bucket::LbuSteal), 0u);
    EXPECT_GT(pc.of(Bucket::SubwarpDrain), 0u);
    const auto starved = [](const prof::Summary &s) {
        return s.of(Bucket::StarvedL1) + s.of(Bucket::StarvedL2) +
               s.of(Bucket::StarvedDram);
    };
    EXPECT_LT(starved(pc), starved(pb));
}

TEST(ProfIntegration, PhaseMatrixSumsToResidentCycles)
{
    prof::Profiler profiler;
    runProfiled(profiler, "wknd", 32, true);
    const auto phases = profiler.phaseTotals();
    std::uint64_t phase_sum = 0;
    for (const auto &row : phases)
        for (const std::uint64_t c : row)
            phase_sum += c;
    EXPECT_EQ(phase_sum, profiler.residentCycles());
    // Every warp starts in ramp and (having consumed responses with
    // an eventually-empty stack) ends in drain.
    std::uint64_t ramp = 0, drain = 0;
    for (int b = 0; b < prof::kNumBuckets; ++b) {
        ramp += phases[std::size_t(prof::Phase::Ramp)][std::size_t(b)];
        drain +=
            phases[std::size_t(prof::Phase::Drain)][std::size_t(b)];
    }
    EXPECT_GT(ramp, 0u);
    EXPECT_GT(drain, 0u);
}

TEST(ProfIntegration, FoldedExportMatchesGoldenFile)
{
    // Golden-file pin of the flamegraph export: deterministic
    // simulator, so the folded stacks for wknd@32 baseline are
    // reproduced byte-for-byte. Regenerate with:
    //   simulate_cli --scene wknd --resolution 32 --profile --out o
    //   cp o/wknd.folded tests/prof/golden/wknd32_pt_baseline.folded
    prof::Profiler profiler;
    const auto out = runProfiled(profiler, "wknd", 32, false);
    std::ostringstream got;
    profiler.writeFolded(got, out.scene);

    const std::string path = std::string(COOPRT_PROF_GOLDEN_DIR) +
                             "/wknd32_pt_baseline.folded";
    std::ifstream gf(path);
    ASSERT_TRUE(gf) << "missing golden file " << path;
    std::stringstream want;
    want << gf.rdbuf();
    EXPECT_EQ(got.str(), want.str());
}

TEST(ProfIntegration, FoldedLinesAreWellFormed)
{
    prof::Profiler profiler;
    const auto out = runProfiled(profiler, "wknd", 16, true);
    std::ostringstream ss;
    profiler.writeFolded(ss, out.scene);
    std::istringstream lines(ss.str());
    std::string line;
    std::size_t n = 0;
    std::uint64_t count_sum = 0;
    while (std::getline(lines, line)) {
        // scene;sm<i>;rtunit;<bucket> <count>
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string stack = line.substr(0, space);
        EXPECT_EQ(stack.rfind("wknd;sm", 0), 0u) << line;
        EXPECT_NE(stack.find(";rtunit;"), std::string::npos) << line;
        const std::uint64_t count =
            std::stoull(line.substr(space + 1));
        EXPECT_GT(count, 0u) << line; // zero buckets are omitted
        count_sum += count;
        ++n;
    }
    EXPECT_GT(n, 0u);
    // The folded counts carry the whole profile (incl. any SM-side
    // warp-buffer-full cycles).
    EXPECT_EQ(count_sum, profiler.residentCycles() +
                             profiler.warpBufferFullCycles());
}

TEST(ProfIntegration, ProfileJsonIsValidAndConserves)
{
    prof::Profiler profiler;
    const auto out = runProfiled(profiler, "wknd", 16, true);
    std::ostringstream ss;
    profiler.writeJson(ss, out.scene);
    EXPECT_TRUE(testutil::isValidJson(ss.str()));
    EXPECT_NE(ss.str().find("\"subwarp_drain\":"), std::string::npos);

    // The run report embeds the summary as a "prof" object.
    const std::string report = core::toJson(out);
    EXPECT_TRUE(testutil::isValidJson(report));
    EXPECT_NE(report.find("\"prof\":{"), std::string::npos);
    EXPECT_NE(report.find("\"resident_cycles\":"), std::string::npos);
}

TEST(ProfIntegration, MetricsCsvCarriesProfColumns)
{
    // With both a trace session and a profiler attached, the
    // taxonomy rides the per-interval metrics CSV.
    trace::SessionOptions opt;
    opt.metrics = true;
    trace::Session session(opt);
    prof::Profiler profiler;
    core::RunConfig cfg;
    cfg.resolution = 16;
    cfg.trace_session = &session;
    cfg.profiler = &profiler;
    core::simulationFor("wknd").run(cfg);

    std::ostringstream ss;
    session.writeMetricsCsv(ss);
    std::istringstream lines(ss.str());
    std::string header;
    // Skip the schema/run-key `#` comment stamp (schema v2).
    while (std::getline(lines, header) && !header.empty() &&
           header[0] == '#') {
    }
    EXPECT_NE(header.find("prof.sm0.issue_compute"),
              std::string::npos);
    EXPECT_NE(header.find("prof.gpu.starved_l2"), std::string::npos);

    // The sampled series is a monotone prefix of the final totals.
    const std::vector<double> series =
        session.metrics()->seriesOf("prof.gpu.issue_compute");
    ASSERT_FALSE(series.empty());
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GE(series[i], series[i - 1]) << "sample " << i;
    EXPECT_LE(series.back(),
              double(profiler.totals()[std::size_t(
                  Bucket::IssueCompute)]));
}

TEST(ProfIntegration, ProfilerIsReusableAcrossRuns)
{
    prof::Profiler profiler;
    const auto a = runProfiled(profiler, "wknd", 16, false);
    const auto b = runProfiled(profiler, "wknd", 16, false);
    // Data restarts per run instead of accumulating, and the
    // deterministic simulator reproduces the exact same profile.
    EXPECT_EQ(a.gpu.prof_summary.buckets, b.gpu.prof_summary.buckets);
    EXPECT_EQ(a.gpu.prof_summary.threads.total(),
              b.gpu.prof_summary.threads.total());
}

} // namespace
