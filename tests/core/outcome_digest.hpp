/**
 * @file
 * The one table of pinned simulated outcomes, and the digest that
 * pins them (DESIGN.md section 6b). Each row names one run — scene,
 * resolution (0 = the scene's bench default), shader token and a
 * tweak of the default RunConfig — and pins its cycle count and
 * outcomeDigest. test_golden_digests.cpp checks every row; other test
 * binaries include this header relatively to anchor their own runs to
 * a row instead of copying its numbers.
 *
 * A deliberate timing change re-pins rows, reviewed like any cycle
 * re-pin: a failing row prints its replacement literal, ready to
 * paste over the old one. Every other change, observers included,
 * must leave every row unchanged.
 */

#ifndef COOPRT_TESTS_CORE_OUTCOME_DIGEST_HPP
#define COOPRT_TESTS_CORE_OUTCOME_DIGEST_HPP

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/simulation.hpp"

namespace cooprt::testutil {

/**
 * FNV-1a over every deterministic simulated field of a run: cycles,
 * every RtUnitStats field, the L1/L2/DRAM and interconnect counters,
 * the query counts and checksum, the stall classes, the ordered warp
 * completions and, as bit patterns, the utilization series and its
 * average, the DRAM utilization and the power report. Observer
 * summaries and host-side fields stay out: attaching an observer
 * must not move the digest.
 */
inline std::uint64_t
outcomeDigest(const core::RunOutcome &o)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto mixDouble = [&mix](double v) {
        mix(std::bit_cast<std::uint64_t>(v));
    };
    const gpu::GpuRunResult &g = o.gpu;
    mix(g.cycles);
    for (const rtunit::RtUnitStatField &f : rtunit::kRtUnitStatFields)
        mix(g.rt.*f.member);
    for (const mem::CacheStats *c : {&g.l1, &g.l2})
        for (std::uint64_t v : {c->accesses, c->hits, c->misses,
                                c->mshr_merges, c->sector_misses})
            mix(v);
    mix(g.dram.requests);
    mix(g.dram.bytes);
    mix(g.dram.busy_cycles);
    mix(g.mem_sys.l2_bytes);
    mix(g.mem_sys.l2_busy_cycles);
    mix(o.query.queries);
    mix(o.query.rounds);
    mix(o.query.found);
    mix(o.query.checksum);
    for (std::uint64_t v : {g.stalls.rt, g.stalls.mem, g.stalls.alu,
                            g.stalls.sfu})
        mix(v);
    mix(g.completions.size());
    for (const gpu::WarpCompletion &w : g.completions) {
        mix(std::uint64_t(w.warp_id));
        mix(w.start_cycle);
        mix(w.finish_cycle);
    }
    mixDouble(g.avg_thread_utilization);
    mix(g.utilization_series.size());
    for (double u : g.utilization_series)
        mixDouble(u);
    mixDouble(g.dram_utilization);
    mixDouble(o.power.dynamic_j);
    mixDouble(o.power.static_j);
    mixDouble(o.power.seconds);
    return h;
}

/** One pinned run; see the file comment. */
struct Golden
{
    const char *name;
    const char *scene;
    int resolution;
    const char *shader; ///< a core::kShaderTokens token
    void (*tweak)(core::RunConfig &);
    const char *tweak_text; ///< the tweak's source, for re-pin rows
    std::uint64_t digest;
    std::uint64_t cycles;
};

/** A Golden's tweak and its source text: statements over `c`, the
 *  RunConfig, separated by commas. */
#define TWEAK(...) [](core::RunConfig &c) { (void)c; __VA_ARGS__; }, \
                   #__VA_ARGS__

/** The four seed runs pinned since the first reference build. */
inline constexpr Golden kSeedGoldens[] = {
    {"wknd_pt32_base", "wknd", 32, "pt", TWEAK(),
     0x474ac85124fdb83full, 34868u},
    {"wknd_pt32_coop", "wknd", 32, "pt", TWEAK(c.gpu.trace.coop = true),
     0xf86d3e98a3e52f98ull, 18756u},
    {"bunny_ao24_coop", "bunny", 24, "ao", TWEAK(c.gpu.trace.coop = true),
     0x450e31baad6e145eull, 17241u},
    {"ship_sh24_base", "ship", 24, "sh", TWEAK(),
     0x2f8b33421a05a54dull, 36232u},
};

/** The configurations the RT-unit and cache hot paths reach beyond
 *  the seeds: other scenes, every query workload, BFS order,
 *  steal-from-bottom, subwarps, the non-idle helper rule, the GTO /
 *  oldest-first schedulers, prefetch plus predictor, a larger warp
 *  buffer, a sectored L1 and the mobile GPU. */
inline constexpr Golden kHotPathGoldens[] = {
    {"crnvl_coop", "crnvl", 16, "pt", TWEAK(c.gpu.trace.coop = true),
     0x40ecae1a3687245aull, 103175u},
    {"fox_coop", "fox", 16, "pt", TWEAK(c.gpu.trace.coop = true),
     0xf95defd22f3015aaull, 196821u},
    {"fox_coop_subwarp8", "fox", 16, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.trace.subwarp_size = 8),
     0x9106e17ad692f85bull, 277910u},
    {"ptsu_knn_base", "ptsu", 16, "knn", TWEAK(),
     0x230cc0b92e4efd7eull, 110643u},
    {"ptsu_knn_coop", "ptsu", 16, "knn", TWEAK(c.gpu.trace.coop = true),
     0x0d67dbad9f180bf7ull, 66143u},
    {"amrd_contain_coop", "amrd", 16, "contain",
     TWEAK(c.gpu.trace.coop = true),
     0xa3ad1a912991b18cull, 773244u},
    {"crnvl_coop_bfs", "crnvl", 16, "pt",
     TWEAK(c.gpu.trace.coop = true,
           c.gpu.trace.order = rtunit::TraversalOrder::Bfs),
     0x5f643bcf909bd6dfull, 118175u},
    {"wknd_coop_steal_bottom", "wknd", 24, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.trace.steal_from_bottom = true),
     0x424bd20730bf838dull, 14387u},
    {"bunny_coop_helper_busy", "bunny", 16, "ao",
     TWEAK(c.gpu.trace.coop = true,
           c.gpu.trace.helper_requires_idle = false),
     0xe306e0a6b9860a27ull, 28316u},
    {"wknd_coop_gto", "wknd", 24, "pt",
     TWEAK(c.gpu.trace.coop = true,
           c.gpu.trace.sched = rtunit::WarpSchedPolicy::GreedyThenOldest),
     0x05c4c4539ea2a869ull, 14856u},
    {"wknd_base_oldest_first", "wknd", 24, "pt",
     TWEAK(c.gpu.trace.sched = rtunit::WarpSchedPolicy::OldestFirst),
     0x588145524646d574ull, 30030u},
    {"wknd_coop_prefetch_predictor", "wknd", 24, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.trace.child_prefetch = true,
           c.gpu.trace.intersection_predictor = true),
     0x2461da42efa2785cull, 13778u},
    {"ship_shadow_warpbuf8", "ship", 16, "sh",
     TWEAK(c.gpu.trace.warp_buffer_entries = 8),
     0x02bbf48eb3fa1417ull, 28884u},
    {"wknd_coop_sectored_l1", "wknd", 24, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.mem.l1_sector_bytes = 32),
     0xbe152321230894ecull, 14591u},
    {"ptsc_radius_coop", "ptsc", 16, "radius",
     TWEAK(c.gpu.trace.coop = true),
     0x9fb8e15883d067d8ull, 61333u},
    {"ptss_knn_coop", "ptss", 16, "knn", TWEAK(c.gpu.trace.coop = true),
     0x28b27409246e9f84ull, 83289u},
    {"amrs_contain_base", "amrs", 16, "contain", TWEAK(),
     0x494f5a835eece12aull, 10594u},
    {"fox_coop_subwarp4", "fox", 8, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.trace.subwarp_size = 4),
     0xd9fe8e0f3133590bull, 247936u},
    {"fox_coop_subwarp16", "fox", 8, "pt",
     TWEAK(c.gpu.trace.coop = true, c.gpu.trace.subwarp_size = 16),
     0x9af7af35539eda0aull, 133994u},
    {"wknd_mobile_base", "wknd", 24, "pt",
     TWEAK(c.gpu = gpu::GpuConfig::mobileBench()),
     0x718c223befaf6e69ull, 35868u},
    {"wknd_mobile_coop", "wknd", 24, "pt",
     TWEAK(c.gpu = gpu::GpuConfig::mobileBench(),
           c.gpu.trace.coop = true),
     0xf476d1dbb2df46b0ull, 23506u},
};

/** Paper Fig. 9: every render scene, base and CoopRT, at its bench
 *  resolution — the runs fig09_speedup_pt and fig12_bandwidth print. */
inline constexpr Golden kFig09Goldens[] = {
    {"wknd_base", "wknd", 0, "pt", TWEAK(),
     0x54a7fccd0ac60e9aull, 35929u},
    {"wknd_coop", "wknd", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xdf34f892d0f8097eull, 22317u},
    {"ship_base", "ship", 0, "pt", TWEAK(),
     0x1fc8b006c55d226full, 156208u},
    {"ship_coop", "ship", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xa6f2fbec466cbbe6ull, 84195u},
    {"bunny_base", "bunny", 0, "pt", TWEAK(),
     0xcd27df44937b977full, 82555u},
    {"bunny_coop", "bunny", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x4261facefe447a88ull, 47190u},
    {"spnza_base", "spnza", 0, "pt", TWEAK(),
     0xc0ee589754b15aecull, 148796u},
    {"spnza_coop", "spnza", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x41d3e35a2ef6d87aull, 134286u},
    {"chsnt_base", "chsnt", 0, "pt", TWEAK(),
     0x399275fa031323beull, 1489686u},
    {"chsnt_coop", "chsnt", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x3643288e73433cb6ull, 673265u},
    {"bath_base", "bath", 0, "pt", TWEAK(),
     0x26e4d32f10707e6cull, 108178u},
    {"bath_coop", "bath", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x27165a699e8464f6ull, 82933u},
    {"ref_base", "ref", 0, "pt", TWEAK(),
     0xe5fe962f94e96a8dull, 155457u},
    {"ref_coop", "ref", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xe6c7449861ff30ffull, 129820u},
    {"crnvl_base", "crnvl", 0, "pt", TWEAK(),
     0x834663e207f63100ull, 1429740u},
    {"crnvl_coop", "crnvl", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xcce03a0ecca23e22ull, 432637u},
    {"fox_base", "fox", 0, "pt", TWEAK(),
     0x7f43be3f0f906c86ull, 2208500u},
    {"fox_coop", "fox", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x4dcb501881c1e54eull, 595252u},
    {"party_base", "party", 0, "pt", TWEAK(),
     0x45e8094486842708ull, 1680326u},
    {"party_coop", "party", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xea8395ef57339f0eull, 535264u},
    {"sprng_base", "sprng", 0, "pt", TWEAK(),
     0xa5ffa362a83c6ccfull, 341306u},
    {"sprng_coop", "sprng", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x68caee52f37a8a5eull, 156024u},
    {"lands_base", "lands", 0, "pt", TWEAK(),
     0x8b108f57cd6d4959ull, 81049u},
    {"lands_coop", "lands", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x92a1e9552538c636ull, 48778u},
    {"frst_base", "frst", 0, "pt", TWEAK(),
     0xc3cb5c180bc74587ull, 839079u},
    {"frst_coop", "frst", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x20615a09e8f81443ull, 257568u},
    {"car_base", "car", 0, "pt", TWEAK(),
     0x1781fa580cb07358ull, 464565u},
    {"car_coop", "car", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0xac6a2e1d3cbcce29ull, 157254u},
    {"robot_base", "robot", 0, "pt", TWEAK(),
     0x939254a01293efc5ull, 749843u},
    {"robot_coop", "robot", 0, "pt", TWEAK(c.gpu.trace.coop = true),
     0x28e6c31ed959bfc8ull, 240086u},
};

#undef TWEAK

/** The seed or hot-path row named @p name; throws
 *  std::out_of_range for any other name. */
inline const Golden &
golden(std::string_view name)
{
    for (std::span<const Golden> table :
         {std::span<const Golden>(kSeedGoldens),
          std::span<const Golden>(kHotPathGoldens)})
        for (const Golden &g : table)
            if (name == g.name)
                return g;
    throw std::out_of_range("no golden row " + std::string(name));
}

/** The RunConfig of row @p g. */
inline core::RunConfig
goldenConfig(const Golden &g)
{
    core::RunConfig cfg;
    cfg.resolution = g.resolution;
    bool known = false;
    for (const auto &[kind, token] : core::kShaderTokens)
        if (std::string_view(token) == g.shader) {
            cfg.shader = kind;
            known = true;
        }
    if (!known)
        throw std::out_of_range(std::string("golden row ") + g.name +
                                ": unknown shader " + g.shader);
    g.tweak(cfg);
    return cfg;
}

} // namespace cooprt::testutil

#endif // COOPRT_TESTS_CORE_OUTCOME_DIGEST_HPP
