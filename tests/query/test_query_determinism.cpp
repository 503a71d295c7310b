/**
 * @file
 * Determinism guarantees of the query subsystem. Query results are
 * pure functions of (scene, workload, params, query id): warp
 * scheduling, LBU work stealing, CoopRT on/off and every observer
 * (profiler, ray recorder, memscope, telemetry, trace session) must
 * leave counts, checksums — and, for observers, the simulated cycle
 * counts themselves — bit-identical. Runs are compared by their
 * whole outcome digest (tests/core/outcome_digest.hpp); the query
 * rows of that golden-outcome table pin the absolute values.
 */

#include <gtest/gtest.h>

#include "../core/outcome_digest.hpp"
#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/session.hpp"

namespace {

using namespace cooprt;
using testutil::outcomeDigest;

core::RunConfig
queryConfig(core::ShaderKind shader, bool coop)
{
    core::RunConfig cfg;
    cfg.shader = shader;
    cfg.resolution = 8;
    cfg.gpu.trace.coop = coop;
    return cfg;
}

core::ShaderKind
naturalShader(const std::string &label)
{
    return scene::SceneRegistry::get(label).kind ==
                   scene::SceneKind::AmrCells
               ? core::ShaderKind::QueryContain
               : core::ShaderKind::QueryKnn;
}

TEST(QueryDeterminism, CoopMatchesBaselineResults)
{
    // CoopRT changes traversal interleaving and cycle counts, never
    // what the queries return.
    for (const auto &l : scene::SceneRegistry::queryLabels()) {
        SCOPED_TRACE(l);
        const auto &sim = core::simulationFor(l);
        const auto base = sim.run(queryConfig(naturalShader(l), false));
        const auto coop = sim.run(queryConfig(naturalShader(l), true));
        EXPECT_EQ(base.query.checksum, coop.query.checksum);
        EXPECT_EQ(base.query.found, coop.query.found);
        EXPECT_EQ(base.query.rounds, coop.query.rounds);
    }
}

TEST(QueryDeterminism, RepeatedRunsBitIdentical)
{
    const auto &sim = core::simulationFor("ptsc");
    const auto cfg =
        queryConfig(core::ShaderKind::QueryRadius, true);
    const auto a = sim.run(cfg);
    const auto b = sim.run(cfg);
    EXPECT_EQ(outcomeDigest(a), outcomeDigest(b));
}

/**
 * Every observer attached at once — the strongest perturbation test:
 * the observed coop k-NN run must have the plain run's digest.
 */
TEST(QueryDeterminism, ObserversDoNotPerturbKnnCoop)
{
    const auto &sim = core::simulationFor("ptsu");
    const auto plain =
        sim.run(queryConfig(core::ShaderKind::QueryKnn, true));

    trace::SessionOptions topt;
    topt.metrics = true;
    trace::Session session(topt);
    prof::Profiler profiler;
    raytrace::Recorder ray;
    memscope::Collector mscope;
    telemetry::Recorder telem;
    auto cfg = queryConfig(core::ShaderKind::QueryKnn, true);
    cfg.trace_session = &session;
    cfg.profiler = &profiler;
    cfg.ray_recorder = &ray;
    cfg.memscope = &mscope;
    cfg.telemetry = &telem;
    const auto observed = sim.run(cfg);

    EXPECT_EQ(outcomeDigest(observed), outcomeDigest(plain));
    EXPECT_TRUE(observed.gpu.prof_summary.enabled);
    EXPECT_TRUE(observed.gpu.memscope_summary.enabled);
    EXPECT_GT(observed.traceSummary().metric_samples, 0u);
}

TEST(QueryDeterminism, ObserversDoNotPerturbContainBase)
{
    const auto &sim = core::simulationFor("amrd");
    const auto plain =
        sim.run(queryConfig(core::ShaderKind::QueryContain, false));

    prof::Profiler profiler;
    memscope::Collector mscope;
    auto cfg = queryConfig(core::ShaderKind::QueryContain, false);
    cfg.profiler = &profiler;
    cfg.memscope = &mscope;
    const auto observed = sim.run(cfg);

    EXPECT_EQ(outcomeDigest(observed), outcomeDigest(plain));
}

TEST(QueryMetrics, ProbesRegisterAndUnregisterWithStore)
{
    trace::Session session;
    {
        query::ResultStore store(4);
        store.at(0).count = 2;
        store.at(0).rounds = 3;
        store.at(1).count = 1;
        store.at(1).rounds = 1;
        store.registerMetrics(session.registry());

        const auto samples = session.registry().snapshot("query.*");
        ASSERT_EQ(samples.size(), 3u);
        for (const auto &s : samples) {
            if (s.name == "query.queries")
                EXPECT_DOUBLE_EQ(s.value, 4.0);
            else if (s.name == "query.rounds")
                EXPECT_DOUBLE_EQ(s.value, 4.0);
            else if (s.name == "query.found")
                EXPECT_DOUBLE_EQ(s.value, 3.0);
            else
                ADD_FAILURE() << "unexpected probe " << s.name;
        }
    }
    // The store owns its registrations: destruction must leave no
    // dangling probes behind.
    EXPECT_TRUE(session.registry().snapshot("query.*").empty());
}

} // namespace
