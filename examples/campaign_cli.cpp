/**
 * @file
 * Campaign driver over the `cooprt::exec` engine: expand a
 * scenes × configs matrix into jobs, run them across the
 * work-stealing pool, and emit a summary table plus optional
 * JSON-lines results. Parallel output is byte-identical to
 * `--jobs 1` (see DESIGN.md "Campaign engine").
 *
 *   ./campaign_cli --matrix wknd,ship x base,coop --jobs 8
 *   ./campaign_cli --scenes fox --configs base,coop,sw8 --json-out r.ndjson
 *   ./campaign_cli --configs base,coop --retries 1 --timeout-s 600
 *
 * `--help` lists every flag, generated from the table in main() plus
 * the observer rows it shares with simulate_cli (cli::observerFlags).
 * Scene and config lists may be "all"; --list-configs names the
 * presets. "-" for --json-out or --diff-out writes to stdout and moves
 * the table to stderr. `--out DIR` writes each job's report and
 * observer sinks as DIR/<scene>_<config><suffix>; --diff-baseline DIR
 * (a previous --out) needs --diff-out and must exist before any job
 * runs (DESIGN.md section 18).
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <vector>

#include "core/cli.hpp"
#include "diff/diff.hpp"
#include "exec/exec.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;

/** Named configuration presets for the config axis. */
struct NamedConfig
{
    const char *name;
    const char *what;
    void (*apply)(core::RunConfig &);
};

const NamedConfig kConfigs[] = {
    {"base", "baseline RT unit", [](core::RunConfig &) {}},
    {"coop", "CoopRT",
     [](core::RunConfig &c) { c.gpu.trace.coop = true; }},
    {"sw4", "CoopRT, subwarp 4",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 4;
     }},
    {"sw8", "CoopRT, subwarp 8",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 8;
     }},
    {"sw16", "CoopRT, subwarp 16",
     [](core::RunConfig &c) {
         c.gpu.trace.coop = true;
         c.gpu.trace.subwarp_size = 16;
     }},
    {"prefetch", "treelet-style child prefetch",
     [](core::RunConfig &c) { c.gpu.trace.child_prefetch = true; }},
    {"predictor", "intersection predictor",
     [](core::RunConfig &c) {
         c.gpu.trace.intersection_predictor = true;
     }},
    {"bfs", "BFS traversal order",
     [](core::RunConfig &c) {
         c.gpu.trace.order = rtunit::TraversalOrder::Bfs;
     }},
    {"mobile", "mobile GPU, baseline",
     [](core::RunConfig &c) { c.gpu = gpu::GpuConfig::mobileBench(); }},
    {"mobile-coop", "mobile GPU, CoopRT",
     [](core::RunConfig &c) {
         c.gpu = gpu::GpuConfig::mobileBench();
         c.gpu.trace.coop = true;
     }},
};

const NamedConfig *
findConfig(const std::string &name)
{
    for (const auto &c : kConfigs)
        if (name == c.name)
            return &c;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> scenes; // empty = every scene it runs on
    std::vector<std::string> config_names = {"base", "coop"};
    core::ShaderKind shader = core::ShaderKind::PathTracing;
    int resolution = 0;
    exec::CampaignOptions copt;
    bool csv = false;
    std::string json_out;
    std::string diff_baseline;
    std::string diff_out;
    std::string telemetry_log;
    std::string prom_out;
    double heartbeat_s = 0.0;

    auto set_scenes = [&](const std::string &list) {
        scenes = list == "all" ? std::vector<std::string>{}
                               : cli::sceneList(list);
    };
    auto set_configs = [&](const std::string &list) {
        if (list == "all") {
            config_names.clear();
            for (const auto &c : kConfigs)
                config_names.push_back(c.name);
            return;
        }
        config_names = cli::splitList(list);
        for (const auto &c : config_names)
            if (findConfig(c) == nullptr)
                throw std::invalid_argument("unknown config '" + c +
                                            "' (run --list-configs)");
        if (config_names.empty())
            throw std::invalid_argument("empty config list");
    };

    cli::Command cmd{
        .name = "campaign_cli",
        .summary = "Run a scenes x configs matrix on the exec engine; "
                   "the output is\nbyte-identical for every --jobs count.",
        .flags = {
            {"--matrix", "S x C", "same as --scenes S --configs C",
             [&](const cli::Args &v) {
                 if (v[1] != "x" && v[1] != "×")
                     throw std::invalid_argument(
                         "wants 'SCENES x CONFIGS'");
                 set_scenes(v[0]);
                 set_configs(v[2]);
             }},
            {"--scenes", "a,b,c", "scene axis (default all: every scene "
                                  "of the shader's kind)",
             [&](const cli::Args &v) { set_scenes(v[0]); }},
            {"--configs", "c1,c2", "config axis (default base,coop)",
             [&](const cli::Args &v) { set_configs(v[0]); }},
            cli::shaderFlag(shader, "workload applied to every config"),
            {"--resolution", "N", "square frame size (0: scene default)",
             cli::number(resolution, 0)},
            {"--jobs", "N", "worker threads (0: hardware concurrency)",
             cli::number(copt.jobs, 0)},
            {"--retries", "K", "extra attempts after a thrown failure",
             cli::number(copt.retries, 0)},
            {"--timeout-s", "T", "per-job wall-clock budget (0: none)",
             cli::number(copt.timeout_s, 0.0)},
            {"--json-out", "FILE", "append a JSON line per job (- stdout)",
             cli::store(json_out)},
            {"--csv", "", "CSV summary table", cli::enable(csv)},
            {"--list-configs", "", "list named configs and exit",
             [](const cli::Args &) {
                 for (const auto &c : kConfigs)
                     std::printf("%-12s %s\n", c.name, c.what);
                 std::exit(0);
             }},
            cli::versionFlag("campaign_cli"),
            {"--diff-baseline", "DIR", "diff jobs against DIR's reports",
             cli::store(diff_baseline)},
            {"--diff-out", "FILE", "per-job diff JSON lines (- stdout)",
             cli::store(diff_out)},
            {"--telemetry-log", "FILE", "campaign lifecycle event log",
             cli::store(telemetry_log)},
            {"--heartbeat-s", "S", "live stderr status every S > 0 s",
             cli::positive(heartbeat_s)},
            {"--prom-out", "FILE", "Prometheus snapshot of the counters",
             cli::store(prom_out)},
        }};
    for (cli::Flag &f : cli::observerFlags(copt.observers, copt.out_dir))
        cmd.flags.push_back(std::move(f));
    cli::parse(cmd, argc, argv);

    // The diff sink is a gate: refuse to start a campaign whose
    // comparison target cannot exist, so "regressed" (exit 1 from a
    // downstream gate) stays distinguishable from "not comparable"
    // (exit 2 here, before any job has run).
    if (diff_baseline.empty() != diff_out.empty())
        return cli::usageError(cmd.name,
                               "--diff-baseline and --diff-out go "
                               "together");
    try {
        cli::checkObserverFlags(copt.observers, copt.out_dir);
    } catch (const std::invalid_argument &e) {
        return cli::usageError(cmd.name, e.what());
    }
    // The snapshot is published by renaming a temp file onto the
    // path, which would replace a device, FIFO or directory there.
    if (!prom_out.empty() && std::filesystem::exists(prom_out) &&
        !std::filesystem::is_regular_file(prom_out))
        return cli::usageError(cmd.name, "--prom-out " + prom_out +
                                             " exists and is not a "
                                             "regular file");
    if (!diff_baseline.empty() &&
        !std::filesystem::is_directory(diff_baseline)) {
        std::cerr << "error: --diff-baseline " << diff_baseline
                  << " is not a directory (expected a previous "
                     "run's --out)\n";
        return 2;
    }

    // The default (or "all") scene axis is every scene the shader
    // runs on.
    if (scenes.empty())
        scenes = scene::SceneRegistry::labelsOfKind(
            core::sceneKindFor(shader));

    // Every (scene, config) pair is checked before any job starts, so
    // a bad matrix is a usage error, not a failed campaign.
    std::vector<exec::Job> jobs;
    for (const auto &label : scenes)
        for (const auto &cname : config_names) {
            core::RunConfig cfg;
            findConfig(cname)->apply(cfg);
            cfg.shader = shader;
            cfg.resolution = resolution;
            try {
                cfg.validate(scene::SceneRegistry::get(label));
            } catch (const std::invalid_argument &e) {
                return cli::usageError(cmd.name, label + "/" + cname +
                                                     ": " + e.what());
            }
            jobs.push_back(exec::Job{label, cfg, label + "/" + cname});
        }

    // The campaign's own observability: exec.* counters live in this
    // session's registry and are printed with the summary. The diff
    // engine adds its diff.* probes when --diff-baseline is active;
    // the Differ outlives the end-of-run registry snapshot below.
    trace::Session session;
    copt.session = &session;
    diff::Differ differ;
    if (!diff_baseline.empty())
        differ.registerMetrics(session.registry());

    // Campaign telemetry: the event log streams lifecycle events as
    // JSON lines, the monitor aggregates EWMA/ETA and serves the
    // heartbeat and Prometheus snapshots.
    std::ofstream telemetry_log_os;
    if (!telemetry_log.empty()) {
        telemetry_log_os.open(telemetry_log);
        if (!telemetry_log_os) {
            std::cerr << "error: cannot open " << telemetry_log
                      << " for the telemetry event log\n";
            return 1;
        }
    }
    telemetry::EventLog event_log(
        telemetry_log_os.is_open() ? &telemetry_log_os : nullptr);
    if (event_log.enabled())
        copt.event_log = &event_log;
    telemetry::CampaignMonitor monitor;
    const bool monitor_on = heartbeat_s > 0.0 || !prom_out.empty();
    if (monitor_on) {
        copt.monitor = &monitor;
        monitor.registerProbes(session.registry(), &monitor);
    }

    const std::size_t total = scenes.size() * config_names.size();
    std::atomic<std::size_t> completed{0};
    copt.on_job_done = [&](const exec::JobResult &r) {
        std::string note;
        if (r.attempts > 1)
            note = " (attempts " + std::to_string(r.attempts) + ")";
        if (r.failure)
            note += ": " + r.failure->message;
        std::fprintf(stderr, "[campaign] %s %s [%zu/%zu]%s\n",
                     r.tag.c_str(), r.ok ? "ok" : "FAILED",
                     ++completed, total, note.c_str());
    };

    exec::Campaign campaign(copt);
    for (auto &job : jobs)
        campaign.add(std::move(job));

    std::vector<exec::JobResult> results;
    {
        // Heartbeat scope: lives exactly as long as the run. Each
        // beat prints the monitor's status line to stderr and, when
        // requested, refreshes the Prometheus snapshot atomically.
        std::optional<telemetry::Heartbeat> heartbeat;
        if (heartbeat_s > 0.0)
            heartbeat.emplace(
                heartbeat_s,
                [&] {
                    const telemetry::CampaignCounters c =
                        exec::countersSnapshot(campaign.stats());
                    if (!prom_out.empty())
                        monitor.writePrometheus(prom_out, c);
                    return monitor.statusLine(c);
                },
                std::cerr);
        results = campaign.run();
    }
    if (!prom_out.empty())
        monitor.writePrometheus(
            prom_out, exec::countersSnapshot(campaign.stats()));

    // "--json-out -" streams the JSON lines to stdout; the summary
    // table then moves to stderr so stdout stays pure JSON.
    const bool json_to_stdout = json_out == "-";
    auto json_lines = [&](std::ostream &os) {
        for (const auto &r : results)
            exec::writeJsonLine(os, r);
    };

    // Differential attribution sink: each successful job diffed
    // against the matching report under --diff-baseline, one JSON
    // line per job. Results are walked in submission order, so the
    // sink is byte-identical between --jobs 1 and --jobs N.
    const bool diff_to_stdout = diff_out == "-";
    auto diff_lines = [&](std::ostream &os) {
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            const std::string base_path =
                diff_baseline + "/" + exec::sanitizeTag(r.tag) +
                ".report.json";
            diff::RunRecord base;
            std::string error;
            if (!diff::loadReportFile(base_path, &base, &error)) {
                std::fprintf(stderr,
                             "[campaign] diff: no baseline for %s "
                             "(%s)\n",
                             r.tag.c_str(), error.c_str());
                continue;
            }
            diff::RunRecord other = diff::recordFromOutcome(r.outcome);
            other.source = r.tag;
            diff::RunDiff d;
            if (!differ.compare(base, other, &d, &error)) {
                std::fprintf(stderr,
                             "[campaign] diff: key mismatch for %s: "
                             "%s\n",
                             r.tag.c_str(), error.c_str());
                continue;
            }
            diff::writeJson(os, d);
        }
    };

    // A sink that cannot be written in full fails the campaign.
    auto emit = [](const std::string &path, auto &&lines,
                   std::ios::openmode mode) {
        if (path == "-") {
            lines(std::cout);
            core::checkWritten(std::cout, "stdout");
        } else if (!path.empty()) {
            core::writeFile(path, lines, mode);
        }
    };
    try {
        if (telemetry_log_os.is_open())
            core::checkWritten(telemetry_log_os, telemetry_log);
        emit(json_out, json_lines, std::ios::app);
        if (!diff_baseline.empty())
            emit(diff_out, diff_lines, std::ios::out);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    // Summary table: cycles per scene × config, plus speedup columns
    // relative to the first config when there is more than one.
    std::vector<std::string> headers = {"scene"};
    for (const auto &c : config_names)
        headers.push_back(c + " cycles");
    for (std::size_t c = 1; c < config_names.size(); ++c)
        headers.push_back(config_names[c] + " speedup");
    stats::Table t(headers);
    const std::size_t ncfg = config_names.size();
    for (std::size_t s = 0; s < scenes.size(); ++s) {
        auto row = &t.row().cell(scenes[s]);
        const exec::JobResult &first = results[s * ncfg];
        for (std::size_t c = 0; c < ncfg; ++c) {
            const exec::JobResult &r = results[s * ncfg + c];
            if (r.ok)
                row->cell(double(r.outcome.gpu.cycles), 0);
            else
                row->cell(std::string("FAILED(") +
                          exec::failureKindName(r.failure->kind) +
                          ")");
        }
        for (std::size_t c = 1; c < ncfg; ++c) {
            const exec::JobResult &r = results[s * ncfg + c];
            if (first.ok && r.ok && r.outcome.gpu.cycles > 0)
                row->cell(double(first.outcome.gpu.cycles) /
                              double(r.outcome.gpu.cycles),
                          2);
            else
                row->cell("-");
        }
    }
    std::ostream &table_os =
        (json_to_stdout || diff_to_stdout) ? std::cerr : std::cout;
    if (csv)
        t.printCsv(table_os);
    else
        t.print(table_os);
    try {
        if (&table_os == &std::cout)
            core::checkWritten(std::cout, "stdout");
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    const auto &st = campaign.stats();
    std::fprintf(stderr,
                 "[campaign] %llu ok, %llu failed (%llu timeouts), "
                 "%llu retried, %llu steals, %.2f s wall\n",
                 (unsigned long long)st.done.load(),
                 (unsigned long long)st.failed.load(),
                 (unsigned long long)st.timed_out.load(),
                 (unsigned long long)st.retried.load(),
                 (unsigned long long)st.steals.load(),
                 campaign.wallSeconds());
    for (const auto &sample : session.registry().snapshot("exec.*"))
        std::fprintf(stderr, "[campaign] %s = %.0f\n",
                     sample.name.c_str(), sample.value);
    if (!diff_baseline.empty())
        for (const auto &sample :
             session.registry().snapshot("diff.*"))
            std::fprintf(stderr, "[campaign] %s = %.0f\n",
                         sample.name.c_str(), sample.value);
    if (monitor_on)
        for (const auto &sample :
             session.registry().snapshot("telemetry.*"))
            std::fprintf(stderr, "[campaign] %s = %.2f\n",
                         sample.name.c_str(), sample.value);

    return st.failed.load() == 0 ? 0 : 1;
}
