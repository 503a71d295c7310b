/**
 * @file
 * diff_cli — compare schema-stamped run reports with the
 * `cooprt::diff` attribution engine (DESIGN.md section 18).
 *
 *     # two report files (simulate_cli --json > file)
 *     diff_cli base.report.json coop.report.json
 *
 *     # whole directories (campaign_cli --out)
 *     diff_cli runs/baseline/ runs/candidate/
 *
 *     # machine-readable / markdown exports
 *     diff_cli --json - base.json other.json
 *     diff_cli --markdown diff.md base.json other.json
 *
 * Two reports are comparable when their run keys agree on scene,
 * shader and resolution; differing fingerprints are the normal case
 * (the configuration change is what is being measured). A key
 * mismatch, unreadable input or a missing baseline exits 2, so
 * scripted gates can distinguish "regressed" from "not comparable".
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/observers.hpp"
#include "diff/diff.hpp"

namespace {

namespace cli = cooprt::cli;

/** Report-file pair to diff (dir mode pairs files by name). */
struct Pair
{
    std::string base;
    std::string other;
};

bool
collectPairs(const std::string &base, const std::string &other,
             std::vector<Pair> *pairs)
{
    namespace fs = std::filesystem;
    const bool base_dir = fs::is_directory(base);
    const bool other_dir = fs::is_directory(other);
    if (!fs::exists(base)) {
        std::fprintf(stderr, "[diff] no such input: %s\n",
                     base.c_str());
        return false;
    }
    if (!fs::exists(other)) {
        std::fprintf(stderr, "[diff] no such input: %s\n",
                     other.c_str());
        return false;
    }
    if (base_dir != other_dir) {
        std::fprintf(stderr,
                     "[diff] cannot compare a file with a directory "
                     "(%s vs %s)\n",
                     base.c_str(), other.c_str());
        return false;
    }
    if (!base_dir) {
        pairs->push_back({base, other});
        return true;
    }
    // Directory mode: align *.json by file name, sorted so output
    // order never depends on directory iteration order.
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(base)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() >= 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
        std::fprintf(stderr, "[diff] no *.json reports under %s\n",
                     base.c_str());
        return false;
    }
    bool ok = true;
    for (const std::string &name : names) {
        const std::string counterpart = other + "/" + name;
        if (!fs::exists(counterpart)) {
            std::fprintf(stderr,
                         "[diff] %s has no counterpart under %s\n",
                         name.c_str(), other.c_str());
            ok = false;
            continue;
        }
        pairs->push_back({base + "/" + name, counterpart});
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    std::string markdown_out;
    bool quiet = false;
    std::vector<std::string> inputs;

    const cli::Command cmd{
        .name = "diff_cli",
        .summary = "Diff run reports (simulate_cli --json, campaign_cli "
                   "--out)\nor two directories of *.report.json; "
                   "the first input is the base.\nExit 0 = diffed; 2 = "
                   "bad usage, unreadable input or run-key mismatch.",
        .flags = {
            {"--json", "FILE|-", "write the diff(s) as JSON lines",
             cli::store(json_out)},
            {"--markdown", "FILE", "write a markdown export",
             cli::store(markdown_out)},
            {"--quiet", "", "suppress the stdout tables",
             cli::enable(quiet)},
            cli::versionFlag("diff_cli"),
        },
        .positionals = "<base> <other> [<other>...]",
        .positional = [&](const std::string &arg) { inputs.push_back(arg); },
    };
    cli::parse(cmd, argc, argv);
    if (inputs.size() < 2)
        return cli::usageError(cmd.name, "need a base and at least one "
                                         "other input");
    if (inputs.size() > 2 &&
        std::filesystem::is_directory(inputs[0]))
        return cli::usageError(cmd.name, "directory mode takes exactly "
                                         "two directories");

    // N-way: the first input anchors, every later one diffs against
    // it. Directory inputs expand to name-aligned file pairs.
    std::vector<Pair> pairs;
    bool inputs_ok = true;
    for (std::size_t i = 1; i < inputs.size(); ++i)
        inputs_ok &= collectPairs(inputs[0], inputs[i], &pairs);
    if (!inputs_ok || pairs.empty())
        return 2;

    std::ofstream json_file;
    std::ostream *json_os = nullptr;
    if (!json_out.empty()) {
        if (json_out == "-") {
            json_os = &std::cout;
            quiet = true; // keep stdout pure JSON lines
        } else {
            json_file.open(json_out);
            if (!json_file) {
                std::fprintf(stderr, "[diff] cannot write %s\n",
                             json_out.c_str());
                return 2;
            }
            json_os = &json_file;
        }
    }
    std::ofstream md_file;
    if (!markdown_out.empty()) {
        md_file.open(markdown_out);
        if (!md_file) {
            std::fprintf(stderr, "[diff] cannot write %s\n",
                         markdown_out.c_str());
            return 2;
        }
    }

    cooprt::diff::Differ differ;
    bool any_mismatch = false;
    bool first = true;
    for (const Pair &pair : pairs) {
        cooprt::diff::RunRecord base;
        cooprt::diff::RunRecord other;
        std::string error;
        if (!cooprt::diff::loadReportFile(pair.base, &base,
                                          &error) ||
            !cooprt::diff::loadReportFile(pair.other, &other,
                                          &error)) {
            std::fprintf(stderr, "[diff] %s\n", error.c_str());
            return 2;
        }
        cooprt::diff::RunDiff d;
        if (!differ.compare(base, other, &d, &error)) {
            std::fprintf(stderr, "[diff] run-key mismatch: %s\n",
                         error.c_str());
            any_mismatch = true;
            continue;
        }
        if (!quiet) {
            if (first) {
                cli::printVersion(cmd.name, std::cout);
                std::cout << "\n";
            } else {
                std::cout << "\n";
            }
            cooprt::diff::writeText(std::cout, d);
        }
        if (json_os != nullptr)
            cooprt::diff::writeJson(*json_os, d);
        if (md_file.is_open()) {
            if (!first)
                md_file << "\n";
            cooprt::diff::writeMarkdown(md_file, d);
        }
        first = false;
    }
    // A diff that cannot be written in full is a failure naming the
    // file, never a silent success.
    try {
        if (!quiet)
            cooprt::core::checkWritten(std::cout, "stdout");
        if (json_os != nullptr)
            cooprt::core::checkWritten(*json_os,
                               json_os == &std::cout ? "stdout"
                                                     : json_out);
        if (md_file.is_open())
            cooprt::core::checkWritten(md_file, markdown_out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[diff] %s\n", e.what());
        return 1;
    }
    return any_mismatch ? 2 : 0;
}
