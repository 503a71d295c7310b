/**
 * @file
 * Non-rendering query workloads (src/query/) — baseline vs CoopRT on
 * every query scene. The RTNN-style k-NN and fixed-radius searches
 * run over the three point-cloud scenes, the locate-and-advect cell
 * containment over the two AMR scenes; every job keeps the
 * brute-force oracle cross-check on, so a row printing at all means
 * the simulator results matched the oracle bit-for-bit.
 *
 * Per row: query counts, cycles for both configs, the speedup, the
 * hottest CoopRT stall bucket (cooprt::prof taxonomy) and the BVH
 * depth absorbing the most node fetches (cooprt::memscope), so the
 * table shows not just *that* cooperative traversal helps short
 * query rays but *where* the residual time goes.
 *
 *   ./query_workloads
 *   ./query_workloads --scenes ptsc,amrd --jobs 4 --csv
 */

#include <algorithm>

#include "bench_util.hpp"
#include "prof/prof.hpp"

namespace {

using namespace cooprt;

/** Name + share of the largest stall bucket of a coop run. */
std::string
topStall(const core::RunOutcome &o)
{
    const auto &p = o.gpu.prof_summary;
    if (!p.enabled || p.rtStallCycles() == 0)
        return "-";
    int best = 0;
    for (int b = 1; b < prof::kNumBuckets; ++b)
        if (p.buckets[std::size_t(b)] > p.buckets[std::size_t(best)])
            best = b;
    const double share = 100.0 * double(p.buckets[std::size_t(best)]) /
                         double(p.rtStallCycles());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.0f%%",
                  prof::bucketName(prof::Bucket(best)), share);
    return buf;
}

/** BVH depth absorbing the most node fetches (memscope heatmap). */
std::string
hotDepth(const core::RunOutcome &o)
{
    const auto &m = o.gpu.memscope_summary;
    if (!m.enabled || m.depths.empty() || m.node_accesses == 0)
        return "-";
    const auto it = std::max_element(
        m.depths.begin(), m.depths.end(),
        [](const auto &a, const auto &b) {
            return a.accesses < b.accesses;
        });
    char buf[64];
    std::snprintf(buf, sizeof(buf), "d%d %.0f%%", it->depth,
                  100.0 * double(it->accesses) /
                      double(m.node_accesses));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cooprt;
    auto opt = benchutil::parse(argc, argv);
    // The rendering default axis makes no sense here: when --scenes
    // was not given, sweep the query scenes instead.
    if (opt.scenes == scene::SceneRegistry::allLabels())
        opt.scenes = scene::SceneRegistry::queryLabels();
    benchutil::banner(
        "Query workloads — baseline vs CoopRT (oracle-checked)", opt);

    for (const auto &label : opt.scenes)
        if (scene::SceneRegistry::get(label).kind ==
            scene::SceneKind::Triangles)
            benchutil::note("skipping triangle scene " + label +
                            " (query workloads want pts*/amr*)");

    const std::pair<const char *, core::ShaderKind> rows[] = {
        {"knn", core::ShaderKind::QueryKnn},
        {"radius", core::ShaderKind::QueryRadius},
        {"contain", core::ShaderKind::QueryContain},
    };

    stats::Table t({"workload", "scene", "queries", "found",
                    "base cycles", "coop cycles", "speedup",
                    "coop top stall", "hot depth"});
    for (const auto &[workload, shader] : rows) {
        std::vector<std::string> scenes;
        for (const auto &label : opt.scenes)
            if (scene::SceneRegistry::get(label).kind ==
                core::sceneKindFor(shader))
                scenes.push_back(label);
        if (scenes.empty())
            continue;
        core::RunConfig base;
        base.shader = shader;
        core::RunConfig coop = base;
        coop.gpu.trace.coop = true;
        const benchutil::Matrix m = benchutil::runMatrix(
            opt, scenes, {base, coop},
            std::string("query ") + workload,
            /*attach_profiler=*/true, /*attach_memscope=*/true);
        for (std::size_t s = 0; s < scenes.size(); ++s) {
            const core::RunOutcome &b = m.at(s, 0);
            const core::RunOutcome &c = m.at(s, 1);
            if (!b.query.oracleMatches() || !c.query.oracleMatches()) {
                std::fprintf(stderr,
                             "[bench] %s/%s disagrees with the "
                             "brute-force oracle\n",
                             scenes[s].c_str(), workload);
                return 1;
            }
            t.row()
                .cell(workload)
                .cell(scenes[s])
                .cell(b.query.queries)
                .cell(b.query.found)
                .cell(double(b.gpu.cycles), 0)
                .cell(double(c.gpu.cycles), 0)
                .cell(double(b.gpu.cycles) / double(c.gpu.cycles), 2)
                .cell(topStall(c))
                .cell(hotDepth(c));
        }
    }
    benchutil::emit(t, opt);
    return 0;
}
