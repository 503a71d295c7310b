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
 * `--help` lists every flag, generated from the table in main(). A
 * file flag of an observer implies it (e.g. --profile-out implies
 * --profile); the observers are described in DESIGN.md:
 * "Observability" (--trace, --metrics), "Profiling", "Ray provenance",
 * "Memscope" and "Telemetry".
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include <optional>

#include "core/cli.hpp"
#include "core/report.hpp"
#include "core/simulation.hpp"
#include "memscope/memscope.hpp"
#include "prof/prof.hpp"
#include "raytrace/raytrace.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/session.hpp"

int
main(int argc, char **argv)
{
    using namespace cooprt;

    std::string scene_label = "crnvl";
    bool scene_explicit = false;
    core::RunConfig cfg;
    bool json = false;
    bool profile = false;
    bool ray_trace = false;
    bool memscope_on = false;
    std::string trace_path;
    std::string metrics_path;
    std::string profile_folded_path;
    std::string profile_json_path;
    std::string ray_out_path;
    std::string memscope_folded_path;
    std::string memscope_json_path;
    bool telemetry_on = false;
    std::string telemetry_out_path;
    double heartbeat_s = 0.0;
    trace::SessionOptions trace_opt;
    raytrace::RecorderConfig ray_cfg;

    // A file flag stores its path and switches its observer on.
    auto file = [](std::string &path, bool &on) -> cli::Setter {
        return [&path, &on](const cli::Args &v) {
            path = v[0];
            on = true;
        };
    };
    auto set = [](auto fn) -> cli::Setter {
        return [fn](const cli::Args &) { fn(); };
    };
    const cli::Command cmd{
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
            {"--trace", "FILE", "write a Chrome trace_event JSON",
             file(trace_path, trace_opt.events)},
            {"--metrics", "FILE", "write the sampled metrics CSV",
             file(metrics_path, trace_opt.metrics)},
            {"--trace-filter", "PAT", "event/metric filter, e.g. rtunit.*",
             cli::store(trace_opt.filter)},
            {"--trace-capacity", "N", "event ring capacity (default 1M)",
             cli::number(trace_opt.ring_capacity, std::size_t(1))},
            {"--profile", "", "print the warp stall taxonomy",
             cli::enable(profile)},
            {"--profile-out", "FILE", "folded stall flamegraph stacks",
             file(profile_folded_path, profile)},
            {"--profile-json", "FILE", "hierarchical JSON stall profile",
             file(profile_json_path, profile)},
            {"--ray-trace", "", "sample rays, print the critical path",
             cli::enable(ray_trace)},
            {"--ray-sample-k", "N", "rays sampled per warp (default 4)",
             [&](const cli::Args &v) {
                 ray_cfg.sample_k = cli::parsePositive<int>(v[0]);
                 ray_trace = true;
             }},
            {"--ray-out", "FILE", "per-ray stats, CSV if FILE ends .csv",
             file(ray_out_path, ray_trace)},
            {"--memscope", "", "per-depth and hot-node fetch profile",
             cli::enable(memscope_on)},
            {"--memscope-out", "FILE", "folded depth/node fetch stacks",
             file(memscope_folded_path, memscope_on)},
            {"--memscope-json", "FILE", "JSON memscope profile",
             file(memscope_json_path, memscope_on)},
            {"--telemetry", "", "host phase spans, throughput and RSS",
             cli::enable(telemetry_on)},
            {"--telemetry-out", "FILE", "per-run telemetry JSON sink",
             file(telemetry_out_path, telemetry_on)},
            {"--heartbeat-s", "S", "live stderr progress every S > 0 s",
             [&](const cli::Args &v) {
                 heartbeat_s = cli::parsePositive<double>(v[0]);
                 telemetry_on = true;
             }},
        }};
    cli::parse(cmd, argc, argv);

    if (core::isQueryShader(cfg.shader) && !scene_explicit)
        scene_label = scene::SceneRegistry::labelsOfKind(
                          core::sceneKindFor(cfg.shader))
                          .front();
    try {
        cfg.validate(scene::SceneRegistry::get(scene_label));
    } catch (const std::invalid_argument &e) {
        return cli::usageError(cmd.name, e.what());
    }

    // The session outlives the run; metrics sampling shares the
    // GPU's activity-sampling interval so the exported series lines
    // up with the paper's 500-cycle AerialVision-style samples.
    trace_opt.metrics_interval = cfg.gpu.sample_interval;
    trace::Session session(trace_opt);
    if (trace_opt.events || trace_opt.metrics)
        cfg.trace_session = &session;
    prof::Profiler profiler;
    if (profile)
        cfg.profiler = &profiler;
    raytrace::Recorder ray(ray_cfg);
    if (ray_trace)
        cfg.ray_recorder = &ray;
    memscope::Collector mscope;
    if (memscope_on)
        cfg.memscope = &mscope;
    telemetry::Recorder telem;
    if (telemetry_on)
        cfg.telemetry = &telem;

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
                           std::to_string(telem.liveCycle()) +
                           ", rays retired " +
                           std::to_string(telem.liveRays()) +
                           ", rss " +
                           std::to_string(rss.current_kb / 1024) +
                           " MB";
                },
                std::cerr);
        out = sim.run(cfg);
    }
    const double report_t0 =
        telemetry_on ? telemetry::monotonicSeconds() : 0.0;

    auto write_file = [](const std::string &path, auto &&writer,
                         const char *what) {
        std::ofstream os(path);
        if (!os) {
            std::cerr << "error: cannot open " << path << " for "
                      << what << "\n";
            std::exit(1);
        }
        writer(os);
        std::cerr << "[trace] wrote " << what << " to " << path
                  << "\n";
    };
    if (!trace_path.empty())
        write_file(trace_path,
                   [&](std::ostream &os) { session.writeTrace(os); },
                   "chrome trace");
    if (!metrics_path.empty())
        write_file(
            metrics_path,
            [&](std::ostream &os) { session.writeMetricsCsv(os); },
            "metrics csv");
    if (!profile_folded_path.empty())
        write_file(profile_folded_path,
                   [&](std::ostream &os) {
                       profiler.writeFolded(os, out.scene);
                   },
                   "folded profile");
    if (!profile_json_path.empty())
        write_file(profile_json_path,
                   [&](std::ostream &os) {
                       profiler.writeJson(os, out.scene);
                   },
                   "json profile");
    if (!ray_out_path.empty()) {
        const bool csv =
            ray_out_path.size() >= 4 &&
            ray_out_path.compare(ray_out_path.size() - 4, 4,
                                 ".csv") == 0;
        write_file(ray_out_path,
                   [&](std::ostream &os) {
                       if (csv)
                           ray.writeRayStatsCsv(os);
                       else
                           ray.writeRayStatsJson(os, out.scene);
                   },
                   csv ? "ray stats csv" : "ray stats json");
    }
    if (!memscope_folded_path.empty())
        write_file(memscope_folded_path,
                   [&](std::ostream &os) {
                       mscope.writeFolded(os, out.scene);
                   },
                   "folded memscope stacks");
    if (!memscope_json_path.empty())
        write_file(memscope_json_path,
                   [&](std::ostream &os) {
                       mscope.writeJson(os, out.scene);
                       os << '\n';
                   },
                   "json memscope profile");
    if (cfg.trace_session != nullptr) {
        const auto &ts = out.traceSummary();
        std::cerr << "[trace] events recorded " << ts.events_recorded
                  << " (dropped " << ts.events_dropped
                  << "), metric samples " << ts.metric_samples
                  << " over " << ts.registered_metrics
                  << " metrics\n";
    }

    if (telemetry_on) {
        // The report phase covers the sink emission above; the
        // telemetry sink itself is written last so it can carry the
        // measurement.
        telem.recordPhase(telemetry::Phase::Report,
                          telemetry::monotonicSeconds() - report_t0);
        if (!telemetry_out_path.empty())
            write_file(telemetry_out_path,
                       [&](std::ostream &os) {
                           telem.writeJson(os, out.scene);
                       },
                       "telemetry json");
    }

    if (json) {
        core::writeJson(std::cout, out);
        return 0;
    }
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
    if (profile) {
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
    if (ray_trace) {
        const auto &r = out.gpu.ray_summary;
        std::cout << "  ray provenance:   " << r.stats.rays_sampled
                  << " rays over " << r.stats.warps_sampled << "/"
                  << r.stats.warps_seen << " warps, "
                  << r.stats.events_recorded << " events (dropped "
                  << r.stats.events_dropped << ")\n";
        raytrace::writeCriticalPath(std::cout, ray.criticalPath());
    }
    if (memscope_on) {
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
        mscope.writeHotNodes(std::cout, 10);
    }
    if (telemetry_on) {
        const auto &t = telem.summary();
        std::printf("  telemetry:        sim %.3f s, %.3g cycles/s, "
                    "%.3g rays/s, rss %llu/%llu MB\n",
                    t.sim_seconds, t.cycles_per_sec, t.rays_per_sec,
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
    return 0;
}
