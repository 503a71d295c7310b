#include "core/cli.hpp"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/build_info.hpp"
#include "trace/json.hpp"

namespace cooprt::cli {

void
printHelp(std::ostream &os, const Command &cmd)
{
    os << "usage: " << cmd.name << " [flags] " << cmd.positionals
       << "\n\n" << cmd.summary << "\n\nflags:\n";
    auto row = [&](const std::string &lhs, const std::string &help) {
        // Help texts are one line; a long flag pushes its help below.
        os << "  " << std::left << std::setw(22) << lhs
           << (lhs.size() > 21 ? "\n" + std::string(25, ' ') : " ")
           << help << "\n";
    };
    for (const Flag &f : cmd.flags)
        row(f.name + (f.metavar.empty() ? "" : " " + f.metavar), f.help);
    row("-h, --help", "print this help and exit");
}

int
usageError(const std::string &prog, const std::string &msg)
{
    std::cerr << "error: " << msg << "\nrun " << prog
              << " --help for usage\n";
    return 2;
}

void
parse(const Command &cmd, int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printHelp(std::cout, cmd);
            std::exit(0);
        }
        if (a.empty() || a[0] != '-') {
            if (!cmd.positional)
                std::exit(usageError(cmd.name,
                                     "unexpected argument '" + a + "'"));
            cmd.positional(a);
            continue;
        }
        const auto f = std::find_if(
            cmd.flags.begin(), cmd.flags.end(),
            [&](const Flag &flag) { return flag.name == a; });
        if (f == cmd.flags.end())
            std::exit(usageError(cmd.name, "unknown flag '" + a + "'"));
        // One token per word of the metavar.
        const int n = f->metavar.empty()
                          ? 0
                          : 1 + int(std::count(f->metavar.begin(),
                                               f->metavar.end(), ' '));
        if (i + n >= argc)
            std::exit(usageError(cmd.name, a + " needs a value (" + a +
                                               " " + f->metavar + ")"));
        const Args args(argv + i + 1, argv + i + 1 + n);
        i += n;
        try {
            f->set(args);
        } catch (const std::invalid_argument &e) {
            std::exit(usageError(cmd.name, a + ": " + e.what()));
        }
    }
}

void
printVersion(const std::string &prog, std::ostream &os)
{
    os << "cooprt " << prog << "\n"
       << "  revision:   " << build::kGitRevision
       << (build::kGitDirty ? " (dirty)" : "") << "\n"
       << "  compiler:   " << build::kCompiler << "\n"
       << "  build type: " << build::kBuildType << "\n"
       << "  check:      " << (build::kCheckEnabled ? "on" : "off")
       << "\n"
       << "  schema:     v" << trace::kSchemaVersion << "\n";
}

Flag
versionFlag(const std::string &prog)
{
    return {"--version", "", "print build provenance and exit",
            [prog](const Args &) {
                printVersion(prog, std::cout);
                std::exit(0);
            }};
}

Flag
shaderFlag(core::ShaderKind &dst, const std::string &help)
{
    std::string tokens;
    for (const auto &[kind, token] : core::kShaderTokens)
        tokens += (tokens.empty() ? "" : "|") + std::string(token);
    return {"--shader", tokens, help, [&dst, tokens](const Args &v) {
                for (const auto &[kind, token] : core::kShaderTokens)
                    if (v[0] == token) {
                        dst = kind;
                        return;
                    }
                throw std::invalid_argument("unknown shader '" + v[0] +
                                            "' (" + tokens + ")");
            }};
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream ss(csv);
    for (std::string tok; std::getline(ss, tok, ',');)
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

std::vector<std::string>
sceneList(const std::string &csv)
{
    std::vector<std::string> labels = splitList(csv);
    for (const auto &l : labels)
        if (!scene::SceneRegistry::has(l))
            throw std::invalid_argument("unknown scene '" + l +
                                        "' (simulate_cli --list shows "
                                        "them all)");
    if (labels.empty())
        throw std::invalid_argument("empty scene list");
    return labels;
}

void
throwBadNumber(std::string_view text, const std::string &why)
{
    throw std::invalid_argument("'" + std::string(text) + "' " + why);
}

Setter
store(std::string &dst)
{
    return [&dst](const Args &v) { dst = v[0]; };
}

Setter
enable(bool &dst)
{
    return [&dst](const Args &) { dst = true; };
}

} // namespace cooprt::cli
