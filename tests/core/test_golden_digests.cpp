/**
 * @file
 * Checks every row of the golden-outcome table (outcome_digest.hpp):
 * each hot-path and Fig. 9 row's plain run matches its pinned cycles
 * and digest, and each seed and hot-path row (see kUnobserved) gives
 * the same digest again with every observer attached, while each
 * observer shows it saw the run. The default build and the
 * COOPRT_CHECK build must both pass this file unchanged; that is the
 * audit layer's zero-perturbation proof.
 *
 * The named cases below (PinnedCycles, Determinism,
 * TraceIntegration) are one-line checks over the same rows: the seed
 * rows' plain runs, each observer alone, repeated runs in one process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/observers.hpp"
#include "outcome_digest.hpp"

namespace cooprt::testutil {

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name;
}

} // namespace cooprt::testutil

namespace {

using namespace cooprt;
using testutil::Golden;
using testutil::golden;

/** @p g's row literal with the pins of @p out, ready to paste. */
std::string
replacementRow(const Golden &g, const core::RunOutcome &out)
{
    std::ostringstream os;
    os << "    {\"" << g.name << "\", \"" << g.scene << "\", "
       << g.resolution << ", \"" << g.shader << "\", TWEAK("
       << g.tweak_text << "),\n     0x" << std::hex << std::setw(16)
       << std::setfill('0') << testutil::outcomeDigest(out) << "ull, "
       << std::dec << out.gpu.cycles << "u},";
    return os.str();
}

void
expectPinned(const Golden &g, const core::RunOutcome &out)
{
    if (out.gpu.cycles != g.cycles ||
        testutil::outcomeDigest(out) != g.digest)
        ADD_FAILURE() << g.name << ": cycles " << out.gpu.cycles
                      << " (pinned " << g.cycles << "), digest 0x"
                      << std::hex << testutil::outcomeDigest(out)
                      << " (pinned 0x" << g.digest << ")"
                      << "; a deliberate timing change re-pins the "
                         "row as\n"
                      << replacementRow(g, out);
}

/** @p g's plain run, @p runs times in one process, matches its pins. */
void
expectGolden(const Golden &g, int runs = 1)
{
    const core::Simulation &sim = core::simulationFor(g.scene);
    for (int i = 0; i < runs; ++i)
        expectPinned(g, sim.run(testutil::goldenConfig(g)));
}

std::uint64_t
memscopeAccesses(const memscope::Collector &mscope)
{
    std::uint64_t total = 0;
    for (int i = 0; i < mscope.unitCount(); ++i)
        total += mscope.unitAt(i).accesses;
    return total;
}

/** @p g run with the observers of @p spec attached still matches its
 *  pins, and each observer saw the run. */
void
expectObserved(const Golden &g, const core::ObserverSpec &spec)
{
    core::RunConfig cfg = testutil::goldenConfig(g);
    core::ObserverSet obs(spec, cfg);
    obs.attach(cfg);
    const core::RunOutcome out = core::simulationFor(g.scene).run(cfg);
    expectPinned(g, out);

    const gpu::GpuRunResult &r = out.gpu;
    if (spec.profile) {
        EXPECT_EQ(r.prof_summary.resident_cycles,
                  r.rt.retired_trace_latency);
    }
    if (const raytrace::Recorder *ray = obs.ray()) {
        EXPECT_TRUE(r.ray_summary.enabled);
        EXPECT_GT(ray->stats().rays_sampled, 0u);
    }
    if (const memscope::Collector *m = obs.memscope()) {
        EXPECT_EQ(memscopeAccesses(*m),
                  r.rt.node_fetches + r.rt.leaf_fetches);
    }
    if (spec.telemetry) {
        EXPECT_EQ(out.telemetry.cycles, r.cycles);
        EXPECT_EQ(out.telemetry.retired_warps, r.rt.retired_warps);
    }
    const trace::RunTraceSummary &ts = out.traceSummary();
    if (spec.events || spec.metrics) {
        EXPECT_GT(ts.registered_metrics, 0u);
    }
    if (spec.events) {
        EXPECT_GT(ts.events_recorded, 0u);
    }
    if (spec.metrics) {
        EXPECT_GT(ts.metric_samples, 0u);
    }
}

const core::ObserverSpec kAllObservers = {
    .profile = true, .ray = true, .memscope = true, .telemetry = true,
    .events = true, .metrics = true};

class GoldenDigest : public ::testing::TestWithParam<Golden>
{};

TEST_P(GoldenDigest, MatchesPinnedOutcome)
{
    expectGolden(GetParam());
}

class ObservedGolden : public ::testing::TestWithParam<Golden>
{};

TEST_P(ObservedGolden, ObserversDoNotPerturb)
{
    expectObserved(GetParam(), kAllObservers);
}

/** Hot-path rows the observer pass leaves out (they still run
 *  plain): with every observer on each takes 1.3-15 s instead of
 *  0.1-0.4 s, because each `memscope.gpu.*` probe re-sums every node
 *  counter of every unit at each metrics sample. fox_coop_subwarp16
 *  keeps fox, CoopRT and subwarps under the pass, amrs_contain_base
 *  the contain shader. */
constexpr std::string_view kUnobserved[] = {
    "fox_coop",   "fox_coop_subwarp4", "fox_coop_subwarp8",
    "crnvl_coop", "crnvl_coop_bfs",    "amrd_contain_coop"};

std::vector<Golden>
observedHotPaths()
{
    std::vector<Golden> rows;
    for (const Golden &g : testutil::kHotPathGoldens)
        if (std::ranges::find(kUnobserved, g.name) == std::end(kUnobserved))
            rows.push_back(g);
    return rows;
}

auto rowName = [](const ::testing::TestParamInfo<Golden> &info) {
    return std::string(info.param.name);
};

INSTANTIATE_TEST_SUITE_P(HotPathConfigs, GoldenDigest,
                         ::testing::ValuesIn(testutil::kHotPathGoldens),
                         rowName);
INSTANTIATE_TEST_SUITE_P(Fig09, GoldenDigest,
                         ::testing::ValuesIn(testutil::kFig09Goldens),
                         rowName);
INSTANTIATE_TEST_SUITE_P(SeedRuns, ObservedGolden,
                         ::testing::ValuesIn(testutil::kSeedGoldens),
                         rowName);
INSTANTIATE_TEST_SUITE_P(HotPathConfigs, ObservedGolden,
                         ::testing::ValuesIn(observedHotPaths()),
                         rowName);

// The seed rows' plain runs, then each observer alone on them.

TEST(PinnedCycles, WkndPathTracingBaseline)
{
    expectGolden(golden("wknd_pt32_base"));
}

TEST(PinnedCycles, WkndPathTracingCoop)
{
    expectGolden(golden("wknd_pt32_coop"));
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoop)
{
    expectGolden(golden("bunny_ao24_coop"));
}

TEST(PinnedCycles, ShipShadowBaseline)
{
    expectGolden(golden("ship_sh24_base"));
}

TEST(PinnedCycles, WkndPathTracingCoopWithRayRecorder)
{
    expectObserved(golden("wknd_pt32_coop"), {.ray = true});
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithRayRecorder)
{
    expectObserved(golden("bunny_ao24_coop"), {.ray = true});
}

TEST(PinnedCycles, ShipShadowBaselineWithRayRecorder)
{
    expectObserved(golden("ship_sh24_base"), {.ray = true});
}

TEST(PinnedCycles, WkndPathTracingBaselineWithMemscope)
{
    expectObserved(golden("wknd_pt32_base"), {.memscope = true});
}

TEST(PinnedCycles, WkndPathTracingCoopWithMemscope)
{
    expectObserved(golden("wknd_pt32_coop"), {.memscope = true});
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithMemscope)
{
    expectObserved(golden("bunny_ao24_coop"), {.memscope = true});
}

TEST(PinnedCycles, ShipShadowBaselineWithMemscope)
{
    expectObserved(golden("ship_sh24_base"), {.memscope = true});
}

TEST(PinnedCycles, WkndPathTracingBaselineWithTelemetry)
{
    expectObserved(golden("wknd_pt32_base"), {.telemetry = true});
}

TEST(PinnedCycles, WkndPathTracingCoopWithTelemetry)
{
    expectObserved(golden("wknd_pt32_coop"), {.telemetry = true});
}

TEST(PinnedCycles, BunnyAmbientOcclusionCoopWithTelemetry)
{
    expectObserved(golden("bunny_ao24_coop"), {.telemetry = true});
}

TEST(PinnedCycles, ShipShadowBaselineWithTelemetry)
{
    expectObserved(golden("ship_sh24_base"), {.telemetry = true});
}

// The simulator is a pure function of its RunConfig: no hidden
// global state survives from one run to the next, and a trace
// session (events and metrics) only observes.

class Determinism : public ::testing::TestWithParam<bool>
{
  protected:
    static const Golden &
    row()
    {
        return golden(GetParam() ? "wknd_pt32_coop" : "wknd_pt32_base");
    }
};

TEST_P(Determinism, RepeatedRunsAreBitIdentical)
{
    expectGolden(row(), 2);
}

TEST_P(Determinism, ObservabilitySessionPerturbsNothing)
{
    expectObserved(row(), {.events = true, .metrics = true});
}

INSTANTIATE_TEST_SUITE_P(BaseAndCoop, Determinism, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "coop" : "base";
                         });

TEST(TraceIntegration, TracingDoesNotPerturbTheRun)
{
    expectObserved(golden("wknd_base_oldest_first"),
                   {.events = true, .metrics = true});
}

} // namespace
