/**
 * @file
 * The one flag parser every cooprt binary shares. A binary describes
 * its command line as a table of `{name, metavar, help, setter}`
 * rows; parse() applies them in argument order and `--help` / `-h`
 * prints the table. A flag takes one token per word of its metavar
 * ("" is a switch, "N" one value, "S x C" three). Numbers parse with
 * std::from_chars: the whole token, inside the flag's range. An
 * unknown flag, a missing value or a setter throwing
 * std::invalid_argument prints "error: <flag>: <why>" to stderr and
 * exits 2.
 */

#ifndef COOPRT_CORE_CLI_HPP
#define COOPRT_CORE_CLI_HPP

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/simulation.hpp"

namespace cooprt::cli {

/** The tokens a flag consumed, one per word of its metavar. */
using Args = std::vector<std::string>;

/** Applies a flag; throws std::invalid_argument on a bad value. */
using Setter = std::function<void(const Args &)>;

/** One row of a binary's flag table. */
struct Flag
{
    std::string name;    ///< "--resolution"
    std::string metavar; ///< "" (switch), "N", "S x C", ...
    std::string help;
    Setter set;
};

/** A binary's command line: its flag table plus positionals. */
struct Command
{
    std::string name;    ///< program name, e.g. "simulate_cli"
    std::string summary; ///< paragraph under the --help usage line
    std::vector<Flag> flags;
    /** Usage placeholder for positionals ("" = none accepted). */
    std::string positionals = {};
    std::function<void(const std::string &)> positional = {};
};

/** Parse @p argv; returns only on success (see the file comment). */
void parse(const Command &cmd, int argc, char **argv);

/** The `--help` text generated from @p cmd's table. */
void printHelp(std::ostream &os, const Command &cmd);

/** Print "error: @p msg" and a --help hint to stderr; returns 2. */
int usageError(const std::string &prog, const std::string &msg);

/** Build provenance (revision, compiler, build type, COOPRT_CHECK,
 *  report schema) under the banner "cooprt @p prog". */
void printVersion(const std::string &prog, std::ostream &os);

/** `--version`: printVersion to stdout, exit 0. */
Flag versionFlag(const std::string &prog);

/** `--shader`: one of the core::kShaderTokens spellings. */
Flag shaderFlag(core::ShaderKind &dst, const std::string &help);

/** The non-empty items of the comma-separated list @p csv. */
std::vector<std::string> splitList(const std::string &csv);

/** splitList of registered scene labels; throws
 *  std::invalid_argument on an unknown label or an empty list. */
std::vector<std::string> sceneList(const std::string &csv);

/** Throw std::invalid_argument("'@p text' @p why"). */
[[noreturn]] void throwBadNumber(std::string_view text,
                                 const std::string &why);

/** All of @p text as a finite T in [@p lo, @p hi], or throw. */
template <typename T>
T
parseNumber(std::string_view text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec == std::errc::invalid_argument || ptr != end)
        throwBadNumber(text, std::is_floating_point_v<T>
                                 ? "is not a number"
                             : std::is_signed_v<T>
                                 ? "is not an integer"
                                 : "is not a non-negative integer");
    bool finite = true;
    if constexpr (std::is_floating_point_v<T>)
        finite = std::isfinite(v);
    if (ec == std::errc::result_out_of_range || !finite || v < lo ||
        v > hi) {
        std::ostringstream range;
        range << "is out of range [" << lo << ", " << hi << "]";
        throwBadNumber(text, range.str());
    }
    return v;
}

/** parseNumber for a strictly positive value. */
template <typename T>
T
parsePositive(std::string_view text)
{
    const T v = parseNumber<T>(text, T(0));
    if (!(v > T(0)))
        throwBadNumber(text, "is not positive");
    return v;
}

/** Setter storing the flag's value in @p dst. */
Setter store(std::string &dst);

/** Setter turning the switch @p dst on. */
Setter enable(bool &dst);

/** Setter parsing a number in [@p lo, @p hi] into @p dst. */
template <typename T>
Setter
number(T &dst, T lo, T hi = std::numeric_limits<T>::max())
{
    return [&dst, lo, hi](const Args &v) {
        dst = parseNumber<T>(v[0], lo, hi);
    };
}

/** Setter parsing a strictly positive number into @p dst. */
template <typename T>
Setter
positive(T &dst)
{
    return [&dst](const Args &v) { dst = parsePositive<T>(v[0]); };
}

/** parseNumber for the positional argument @p what of a binary
 *  without a flag table; a bad value prints "error: <what> ..." and
 *  exits 2. */
template <typename T>
T
argNumber(const char *what, const char *text, T lo,
          T hi = std::numeric_limits<T>::max())
{
    try {
        return parseNumber<T>(text, lo, hi);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "error: %s %s\n", what, e.what());
        std::exit(2);
    }
}

} // namespace cooprt::cli

#endif // COOPRT_CORE_CLI_HPP
