/**
 * @file
 * The command-line front end to the simulator: run any scene under
 * any configuration and get human-readable or JSON output. This is
 * the "driver binary" a downstream user scripts against.
 *
 *   ./simulate_cli --scene fox --coop --subwarp 8 --json
 *   ./simulate_cli --scene spnza --shader ao --resolution 64
 *   ./simulate_cli --list
 *
 * `--help` lists every flag, generated from the table in main() plus
 * the observer rows it shares with campaign_cli (cli::observerFlags).
 * `--out DIR` writes DIR/<scene>.report.json and every attached
 * observer's sinks (core::ObserverSet); the observers are described
 * in DESIGN.md: "Observability" (--trace, --metrics), "Profiling",
 * "Ray provenance", "Memscope" and "Telemetry".
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>

#include "core/cli.hpp"
#include "core/observers.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"

namespace {

using namespace cooprt;

/** The human-readable report of one run, plus each observer's
 *  summary. */
void
printSummary(const core::RunOutcome &out, const core::RunConfig &cfg,
             core::ObserverSet &obs)
{
    std::cout << "scene " << out.scene << " @" << out.resolution << "x"
              << out.resolution
              << (cfg.gpu.trace.coop ? " [CoopRT]" : " [baseline]")
              << "\n";
    std::cout << "  cycles:           " << out.gpu.cycles << "\n";
    std::cout << "  trace_rays:       " << out.gpu.rt.retired_warps
              << "\n";
    std::cout << "  node fetches:     "
              << out.gpu.rt.node_fetches + out.gpu.rt.leaf_fetches
              << " (steals " << out.gpu.rt.steals << ")\n";
    std::cout << "  thread util:      "
              << 100.0 * out.gpu.avg_thread_utilization << "%\n";
    std::cout << "  L1/L2 miss:       " << out.gpu.l1.missRate() << " / "
              << out.gpu.l2.missRate() << "\n";
    std::cout << "  DRAM util:        " << out.gpu.dram_utilization
              << "\n";
    std::cout << "  avg power:        " << out.power.avgWatts()
              << " W\n";
    std::cout << "  energy:           " << out.power.totalJoules()
              << " J (EDP " << out.power.edp() << ")\n";
    if (out.query.enabled) {
        std::printf("  query:            %s, %llu queries, "
                    "%llu rounds, %llu found, checksum 0x%llx\n",
                    out.query.workload.c_str(),
                    static_cast<unsigned long long>(out.query.queries),
                    static_cast<unsigned long long>(out.query.rounds),
                    static_cast<unsigned long long>(out.query.found),
                    static_cast<unsigned long long>(
                        out.query.checksum));
        if (out.query.verified)
            std::printf("  oracle:           %llu checked, "
                        "%llu mismatches (%s)\n",
                        static_cast<unsigned long long>(
                            out.query.oracle_checked),
                        static_cast<unsigned long long>(
                            out.query.oracle_mismatches),
                        out.query.oracleMatches() ? "agree"
                                                  : "DISAGREE");
    }
    if (obs.profiler() != nullptr) {
        const auto &p = out.gpu.prof_summary;
        std::cout << "  stall taxonomy (" << p.resident_cycles
                  << " warp-resident cycles):\n";
        for (int b = 0; b < prof::kNumBuckets; ++b) {
            const std::uint64_t c = p.buckets[std::size_t(b)];
            if (c == 0)
                continue;
            const double denom = double(p.rtStallCycles());
            std::printf("    %-16s %12llu  %5.1f%%\n",
                        prof::bucketName(prof::Bucket(b)),
                        static_cast<unsigned long long>(c),
                        denom > 0 ? 100.0 * double(c) / denom : 0.0);
        }
    }
    if (obs.ray() != nullptr) {
        const auto &r = out.gpu.ray_summary;
        std::cout << "  ray provenance:   " << r.stats.rays_sampled
                  << " rays over " << r.stats.warps_sampled << "/"
                  << r.stats.warps_seen << " warps, "
                  << r.stats.events_recorded << " events (dropped "
                  << r.stats.events_dropped << ")\n";
        raytrace::writeCriticalPath(std::cout, obs.ray()->criticalPath());
    }
    if (obs.memscope() != nullptr) {
        const auto &m = out.gpu.memscope_summary;
        std::cout << "  memscope:         " << m.node_accesses
                  << " node fetches, " << m.node_bytes
                  << " B (l1 " << m.node_level[0] << " / l2 "
                  << m.node_level[1] << " / dram " << m.node_level[2]
                  << ")\n";
        std::cout << "  per-depth attribution:\n";
        for (const auto &d : m.depths)
            std::printf(
                "    depth %2d  %10llu fetches  miss %5.1f%%  "
                "avg lanes %5.2f\n",
                d.depth,
                static_cast<unsigned long long>(d.accesses),
                100.0 * d.missRate(), d.avgLanes());
        obs.memscope()->writeHotNodes(std::cout, 10);
    }
    if (obs.telemetry() != nullptr) {
        const auto &t = obs.telemetry()->summary();
        std::printf("  telemetry:        sim %.3f s, %.3g cycles/s, "
                    "%.3g warps/s, rss %llu/%llu MB\n",
                    t.sim_seconds, t.cycles_per_sec,
                    t.retired_warps_per_sec,
                    static_cast<unsigned long long>(
                        t.rss.current_kb / 1024),
                    static_cast<unsigned long long>(
                        t.rss.peak_kb / 1024));
        std::cout << "  phases:          ";
        for (int p = 0; p < telemetry::kNumPhases; ++p) {
            const auto phase = telemetry::Phase(p);
            std::printf(" %s %.3fs",
                        telemetry::phaseName(phase),
                        t.phase(phase).seconds);
        }
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scene_label = "crnvl";
    bool scene_explicit = false;
    core::RunConfig cfg;
    bool json = false;
    core::ObserverSpec spec;
    std::string out_dir;
    double heartbeat_s = 0.0;

    auto set = [](auto fn) -> cli::Setter {
        return [fn](const cli::Args &) { fn(); };
    };
    cli::Command cmd{
        .name = "simulate_cli",
        .summary = "Simulate one scene under one configuration; print "
                   "text or JSON.",
        .flags = {
            {"--scene", "L", "scene (default crnvl; ptsu/amrs for queries)",
             [&](const cli::Args &v) {
                 if (!scene::SceneRegistry::has(v[0]))
                     throw std::invalid_argument("unknown scene '" + v[0] +
                                                 "' (see --list)");
                 scene_label = v[0];
                 scene_explicit = true;
             }},
            cli::shaderFlag(cfg.shader, "workload (default pt)"),
            {"--resolution", "N", "square frame size (0: scene default)",
             cli::number(cfg.resolution, 0)},
            {"--coop", "", "enable CoopRT", cli::enable(cfg.gpu.trace.coop)},
            {"--subwarp", "N", "CoopRT helper scope (4/8/16/32)",
             cli::number(cfg.gpu.trace.subwarp_size, 1)},
            {"--warp-buffer", "N", "RT warp-buffer entries (1-64)",
             cli::number(cfg.gpu.trace.warp_buffer_entries, 1)},
            {"--prefetch", "", "treelet-style child prefetch",
             cli::enable(cfg.gpu.trace.child_prefetch)},
            {"--predictor", "", "intersection predictor",
             cli::enable(cfg.gpu.trace.intersection_predictor)},
            {"--bfs", "", "BFS traversal order", set([&] {
                 cfg.gpu.trace.order = rtunit::TraversalOrder::Bfs;
             })},
            {"--mobile", "", "mobile GPU (replaces earlier GPU flags)",
             set([&] { cfg.gpu = gpu::GpuConfig::mobileBench(); })},
            {"--bounces", "N", "path-tracing bounce limit",
             cli::number(cfg.pt.max_bounces, 0)},
            {"--query-k", "N", "k for knn (default 4)",
             cli::positive(cfg.query.k)},
            {"--query-radius", "R", "search radius for radius",
             cli::positive(cfg.query.radius)},
            {"--query-steps", "N", "locate-advect rounds for contain",
             cli::positive(cfg.query.steps)},
            {"--no-oracle", "", "skip the query brute-force cross-check",
             set([&] { cfg.query.verify = false; })},
            {"--json", "", "emit a JSON report instead of text",
             cli::enable(json)},
            {"--list", "", "list scene labels and exit", set([] {
                 for (const auto &l : scene::SceneRegistry::allLabels())
                     std::cout << l << "\n";
                 for (const auto &l : scene::SceneRegistry::queryLabels())
                     std::cout << l << "\n";
                 std::exit(0);
             })},
            cli::versionFlag("simulate_cli"),
            {"--heartbeat-s", "S", "live stderr progress every S > 0 s",
             [&](const cli::Args &v) {
                 heartbeat_s = cli::parsePositive<double>(v[0]);
                 spec.telemetry = true;
             }},
        }};
    for (cli::Flag &f : cli::observerFlags(spec, out_dir))
        cmd.flags.push_back(std::move(f));
    cli::parse(cmd, argc, argv);

    if (core::isQueryShader(cfg.shader) && !scene_explicit)
        scene_label = scene::SceneRegistry::labelsOfKind(
                          core::sceneKindFor(cfg.shader))
                          .front();
    try {
        cfg.validate(scene::SceneRegistry::get(scene_label));
        cli::checkObserverFlags(spec, out_dir);
    } catch (const std::invalid_argument &e) {
        return cli::usageError(cmd.name, e.what());
    }

    core::ObserverSet obs(spec, cfg);
    obs.attach(cfg);
    telemetry::Recorder *telem = obs.telemetry();

    const core::Simulation &sim = core::simulationFor(scene_label);
    core::RunOutcome out;
    {
        // Heartbeat scope: lives exactly as long as the run, reading
        // the recorder's lock-free live gauges from its own thread.
        std::optional<telemetry::Heartbeat> heartbeat;
        if (heartbeat_s > 0.0)
            heartbeat.emplace(
                heartbeat_s,
                [&] {
                    const telemetry::Rss rss = telemetry::readRss();
                    return scene_label + " cycle " +
                           std::to_string(telem->liveCycle()) +
                           ", warps retired " +
                           std::to_string(telem->liveRetiredWarps()) +
                           ", rss " +
                           std::to_string(rss.current_kb / 1024) +
                           " MB";
                },
                std::cerr);
        out = sim.run(cfg);
    }
    try {
        if (!out_dir.empty())
            std::filesystem::create_directories(out_dir);
        for (const std::string &path : obs.write(out_dir, scene_label, out))
            std::cerr << "[trace] wrote " << path << "\n";
        if (cfg.trace_session != nullptr) {
            const auto &ts = out.traceSummary();
            std::cerr << "[trace] events recorded " << ts.events_recorded
                      << " (dropped " << ts.events_dropped
                      << "), metric samples " << ts.metric_samples
                      << " over " << ts.registered_metrics
                      << " metrics\n";
        }
        if (json)
            core::writeJson(std::cout, out);
        else
            printSummary(out, cfg, obs);
        core::checkWritten(std::cout, "stdout");
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

