/**
 * @file
 * Shared plumbing for the figure/table bench binaries.
 *
 * Every binary regenerates one of the paper's tables or figures and
 * prints the same rows/series the paper reports. The common flags
 * (--csv, --scenes, --jobs, --json-out; see parse() or any binary's
 * --help) are shared; --json-out lines are
 * {"bench": ..., "table": {...}}, so bench trajectories can be
 * collected by tooling.
 *
 * The per-scene × per-config simulation loops run on the
 * `cooprt::exec` campaign engine (`runMatrix` / `compareCoopAll`
 * below): jobs execute across a work-stealing pool, results come
 * back in submission order, and the printed tables are bit-identical
 * to a serial run.
 */

#ifndef COOPRT_BENCH_BENCH_UTIL_HPP
#define COOPRT_BENCH_BENCH_UTIL_HPP

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/observers.hpp"
#include "core/simulation.hpp"
#include "exec/exec.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"

namespace cooprt::benchutil {

/** Parsed common command-line options. */
struct Options
{
    bool csv = false;
    std::vector<std::string> scenes;
    /** Campaign worker threads; 0 = hardware concurrency. */
    int jobs = 0;
    /** When set, emit() appends machine-readable JSON lines here. */
    std::string json_out;
    /** The experiment name of the last banner(), tagged into JSON. */
    mutable std::string bench_name;
};

/**
 * Parse the common flags plus a binary's @p extra ones (the program
 * name for --help and diagnostics comes from argv[0]).
 */
inline Options
parse(int argc, char **argv, std::vector<cli::Flag> extra = {})
{
    Options opt;
    opt.scenes = scene::SceneRegistry::allLabels();
    const std::string prog =
        std::filesystem::path(argc > 0 ? argv[0] : "bench")
            .filename()
            .string();
    cli::Command cmd{
        .name = prog,
        .summary = "Regenerate one of the paper's tables or figures.",
        .flags = {
            {"--csv", "", "machine-readable output", cli::enable(opt.csv)},
            {"--scenes", "a,b,c", "restrict to a subset of the scenes",
             [&opt](const cli::Args &v) {
                 opt.scenes = cli::sceneList(v[0]);
             }},
            {"--jobs", "N",
             "campaign worker threads (default 0: hardware "
             "concurrency); output is byte-identical for every N",
             cli::number(opt.jobs, 0)},
            {"--json-out", "FILE",
             "append each emitted table as one JSON line",
             cli::store(opt.json_out)},
        }};
    for (auto &f : extra)
        cmd.flags.push_back(std::move(f));
    cli::parse(cmd, argc, argv);
    return opt;
}

/**
 * Print @p table per the --csv flag; with --json-out, also append
 * it as one JSON line tagged with the current banner name. A JSON
 * line that cannot be appended in full exits 1 naming the file.
 */
inline void
emit(const stats::Table &table, const Options &opt)
{
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    if (opt.json_out.empty())
        return;
    try {
        core::writeFile(
            opt.json_out,
            [&](std::ostream &os) {
                // The build stamp is constant per binary, so lines
                // stay byte-identical across --jobs while recording
                // which tree and toolchain produced each bench
                // trajectory point.
                os << "{\"schema_version\":" << trace::kSchemaVersion
                   << ",\"bench\":" << trace::quoteJson(opt.bench_name)
                   << ",\"build\":" << telemetry::buildInfoJson()
                   << ",\"table\":";
                table.printJson(os);
                os << "}\n";
            },
            std::ios::app);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[bench] error: %s\n", e.what());
        std::exit(1);
    }
}

/** Progress note on stderr (kept off the table output). */
inline void
note(const std::string &msg)
{
    std::fprintf(stderr, "[bench] %s\n", msg.c_str());
}

/** Header line naming the experiment. */
inline void
banner(const std::string &what, const Options &opt)
{
    opt.bench_name = what;
    if (!opt.csv)
        std::cout << "== " << what << " ==\n";
}

/** Scene-major result block of one scenes × configs campaign. */
struct Matrix
{
    std::vector<core::RunOutcome> outcomes;
    std::size_t num_configs = 1;

    const core::RunOutcome &
    at(std::size_t scene, std::size_t config) const
    {
        return outcomes[scene * num_configs + config];
    }
};

/**
 * Run every scene × config pair as one `cooprt::exec` campaign
 * (worker count from `opt.jobs`) and return the outcomes in
 * submission order. Progress goes to stderr in completion order;
 * the returned data — and hence every table built from it — is
 * independent of scheduling. Every job attaches the @p observers
 * (their summaries land in the outcomes; no files are written). Any
 * failed job aborts the bench with its captured error.
 */
inline Matrix
runMatrix(const Options &opt, const std::vector<std::string> &scenes,
          const std::vector<core::RunConfig> &configs,
          const std::string &what, const core::ObserverSpec &observers = {})
{
    std::vector<exec::Job> jobs;
    jobs.reserve(scenes.size() * configs.size());
    for (const auto &label : scenes)
        for (std::size_t c = 0; c < configs.size(); ++c) {
            std::string tag = what + " " + label;
            if (configs.size() > 1) {
                tag += '#';
                tag += std::to_string(c);
            }
            jobs.push_back(exec::Job{label, configs[c], std::move(tag)});
        }

    exec::CampaignOptions copt;
    copt.jobs = opt.jobs;
    copt.observers = observers;
    const std::size_t total = jobs.size();
    std::atomic<std::size_t> completed{0};
    copt.on_job_done = [&](const exec::JobResult &r) {
        note(r.tag + (r.ok ? "" : " FAILED") + " [" +
             std::to_string(++completed) + "/" +
             std::to_string(total) + "]");
    };

    auto results = exec::runCampaign(std::move(jobs), copt);
    Matrix m;
    m.num_configs = configs.empty() ? 1 : configs.size();
    m.outcomes.reserve(results.size());
    for (auto &r : results) {
        if (!r.ok) {
            std::fprintf(
                stderr, "[bench] job '%s' failed (%s): %s\n",
                r.tag.c_str(),
                r.failure ? exec::failureKindName(r.failure->kind)
                          : "?",
                r.failure ? r.failure->message.c_str() : "?");
            std::exit(1);
        }
        m.outcomes.push_back(std::move(r.outcome));
    }
    return m;
}

/**
 * Baseline-vs-CoopRT comparisons for @p scenes under @p cfg, one
 * campaign for the whole sweep (replaces per-scene `compareCoop`
 * loops). Results are ordered like @p scenes.
 */
inline std::vector<core::Comparison>
compareCoopAll(const Options &opt,
               const std::vector<std::string> &scenes,
               core::RunConfig cfg, const std::string &what,
               const core::ObserverSpec &observers = {})
{
    core::RunConfig base = cfg;
    base.gpu.trace.coop = false;
    core::RunConfig coop = cfg;
    coop.gpu.trace.coop = true;
    const Matrix m = runMatrix(opt, scenes, {base, coop}, what, observers);
    std::vector<core::Comparison> out(scenes.size());
    for (std::size_t s = 0; s < scenes.size(); ++s) {
        out[s].base = m.at(s, 0);
        out[s].coop = m.at(s, 1);
    }
    return out;
}

} // namespace cooprt::benchutil

#endif // COOPRT_BENCH_BENCH_UTIL_HPP
