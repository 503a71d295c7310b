/**
 * @file
 * Golden outcome digests for the configurations the RT-unit and
 * cache hot paths reach but test_pinned_cycles.cpp does not: other
 * scenes, query workloads, BFS order, steal-from-bottom, subwarps,
 * the non-idle helper rule, the GTO / oldest-first schedulers,
 * prefetch plus predictor and a larger warp buffer.
 *
 * Each digest is an FNV-1a hash over the cycle count, every
 * RtUnitStats field, the L1/L2/DRAM counters and the query
 * checksum (hostbench's outcomeDigest). The values were captured
 * before the hot-path data structures were rewritten (flat cache tag
 * store, lane masks, ring stacks); that rewrite, and any later
 * change that claims to be bit-identical, must pass them unchanged.
 * A deliberate timing change re-pins them, reviewed like a cycle
 * re-pin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "core/simulation.hpp"

namespace {

using namespace cooprt;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

std::uint64_t
outcomeDigest(const core::RunOutcome &o)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto &g = o.gpu;
    fnvMix(h, g.cycles);
    for (const rtunit::RtUnitStatField &f : rtunit::kRtUnitStatFields)
        fnvMix(h, g.rt.*f.member);
    for (const mem::CacheStats *c : {&g.l1, &g.l2})
        for (std::uint64_t v : {c->accesses, c->hits, c->misses,
                                c->mshr_merges, c->sector_misses})
            fnvMix(h, v);
    fnvMix(h, g.dram.requests);
    fnvMix(h, g.dram.bytes);
    fnvMix(h, g.dram.busy_cycles);
    fnvMix(h, g.mem_sys.l2_bytes);
    fnvMix(h, g.mem_sys.l2_busy_cycles);
    fnvMix(h, o.query.queries);
    fnvMix(h, o.query.rounds);
    fnvMix(h, o.query.found);
    fnvMix(h, o.query.checksum);
    return h;
}

struct Golden
{
    const char *name;
    const char *scene;
    int resolution;
    core::ShaderKind shader;
    std::function<void(core::RunConfig &)> tweak;
    std::uint64_t digest;
    std::uint64_t cycles;
};

using core::RunConfig;
using core::ShaderKind;
using rtunit::TraversalOrder;
using rtunit::WarpSchedPolicy;

const Golden kGoldens[] = {
    {"crnvl_coop", "crnvl", 16, ShaderKind::PathTracing,
     [](RunConfig &c) { c.gpu.trace.coop = true; },
     0x2f955374a2c96c54ull, 103175u},
    {"fox_coop", "fox", 16, ShaderKind::PathTracing,
     [](RunConfig &c) { c.gpu.trace.coop = true; },
     0x33dfa58022dc3c9dull, 196821u},
    {"fox_coop_subwarp8", "fox", 16, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 8;
     },
     0x53bbddbef8bcc102ull, 277910u},
    {"ptsu_knn_base", "ptsu", 16, ShaderKind::QueryKnn,
     [](RunConfig &) {}, 0x0951e4cdb8db5f71ull, 110643u},
    {"ptsu_knn_coop", "ptsu", 16, ShaderKind::QueryKnn,
     [](RunConfig &c) { c.gpu.trace.coop = true; },
     0xb64a99e5f44240b0ull, 66143u},
    {"amrd_contain_coop", "amrd", 16, ShaderKind::QueryContain,
     [](RunConfig &c) { c.gpu.trace.coop = true; },
     0x925e3f2dfadcefdeull, 773244u},
    {"crnvl_coop_bfs", "crnvl", 16, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.order = TraversalOrder::Bfs;
     },
     0x75b668fcb5cc9476ull, 118175u},
    {"wknd_coop_steal_bottom", "wknd", 24, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.steal_from_bottom = true;
     },
     0x3501ce59bea23338ull, 14387u},
    {"bunny_coop_helper_busy", "bunny", 16, ShaderKind::AmbientOcclusion,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.helper_requires_idle = false;
     },
     0x9613b4d04bac4548ull, 28316u},
    {"wknd_coop_gto", "wknd", 24, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.sched = WarpSchedPolicy::GreedyThenOldest;
     },
     0x276ff99be4bcc7a2ull, 14856u},
    {"wknd_base_oldest_first", "wknd", 24, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.sched = WarpSchedPolicy::OldestFirst;
     },
     0x4891a2a29be8d1cdull, 30030u},
    {"wknd_coop_prefetch_predictor", "wknd", 24, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.child_prefetch = true;
         c.gpu.trace.intersection_predictor = true;
     },
     0x9f59eae2aace48c8ull, 13778u},
    {"ship_shadow_warpbuf8", "ship", 16, ShaderKind::Shadow,
     [](RunConfig &c) { c.gpu.trace.warp_buffer_entries = 8; },
     0xec548925b271a534ull, 28884u},
    {"wknd_coop_sectored_l1", "wknd", 24, ShaderKind::PathTracing,
     [](RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.mem.l1_sector_bytes = 32;
     },
     0x555834849d5131f7ull, 14591u},
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name;
}

class GoldenDigest : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenDigest, MatchesPinnedOutcome)
{
    const Golden &g = GetParam();
    core::RunConfig cfg;
    cfg.resolution = g.resolution;
    cfg.shader = g.shader;
    g.tweak(cfg);
    const core::RunOutcome out = core::simulationFor(g.scene).run(cfg);
    EXPECT_EQ(out.gpu.cycles, g.cycles) << g.name;
    EXPECT_EQ(outcomeDigest(out), g.digest)
        << g.name << ": 0x" << std::hex << outcomeDigest(out);
}

INSTANTIATE_TEST_SUITE_P(
    HotPathConfigs, GoldenDigest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

} // namespace
