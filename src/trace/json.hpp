/**
 * @file
 * JSON string escaping and the minimal streaming JSON writer shared
 * by every hand-rolled JSON emitter in the repository (the run
 * reporter, the Chrome-trace writer, the bench table exporter, the
 * ray-provenance raystats export). Kept dependency-free on purpose.
 */

#ifndef COOPRT_TRACE_JSON_HPP
#define COOPRT_TRACE_JSON_HPP

#include <ostream>
#include <string>
#include <string_view>

namespace cooprt::trace {

/**
 * Escape @p s for use inside a JSON string literal: quotes and
 * backslashes are backslash-escaped, control characters below 0x20
 * become \n / \t / \r / \b / \f or \u00XX. The result does NOT
 * include the surrounding quotes.
 */
std::string escapeJson(std::string_view s);

/** Convenience: @p s escaped and wrapped in double quotes. */
std::string quoteJson(std::string_view s);

/**
 * Minimal streaming JSON emitter: tracks comma placement per nesting
 * level, quotes keys/strings through quoteJson, and streams every
 * other value through operator<<. The caller is responsible for
 * balanced open/close calls; no validation happens here (the tests
 * run emitted documents through a JSON checker instead).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** Open an object; with @p key, as `"key":{`. */
    void
    open(const char *key = nullptr)
    {
        comma();
        if (key)
            os_ << quoteJson(key) << ':';
        os_ << '{';
        first_ = true;
    }

    void
    close()
    {
        os_ << '}';
        first_ = false;
    }

    /** Open an array; with @p key, as `"key":[`. */
    void
    openArray(const char *key = nullptr)
    {
        comma();
        if (key)
            os_ << quoteJson(key) << ':';
        os_ << '[';
        first_ = true;
    }

    void
    closeArray()
    {
        os_ << ']';
        first_ = false;
    }

    template <typename T>
    void
    field(const char *key, const T &value)
    {
        comma();
        os_ << quoteJson(key) << ':' << value;
        first_ = false;
    }

    void
    field(const char *key, const std::string &value)
    {
        comma();
        os_ << quoteJson(key) << ':' << quoteJson(value);
        first_ = false;
    }

    /** Array element (inside openArray/closeArray). */
    template <typename T>
    void
    value(const T &v)
    {
        comma();
        os_ << v;
        first_ = false;
    }

    void
    value(const std::string &v)
    {
        comma();
        os_ << quoteJson(v);
        first_ = false;
    }

  private:
    void
    comma()
    {
        if (!first_)
            os_ << ',';
        first_ = true;
    }

    std::ostream &os_;
    bool first_ = true;
};

/**
 * Version of the repository's report/sink schema. Bumped whenever a
 * JSON report or sink changes shape in a way downstream tooling must
 * detect (field renames/removals, semantic changes); purely additive
 * fields do not bump it. Version 1 is the implicit, unstamped schema
 * of PRs 1-9; version 2 introduced the stamp itself plus the
 * `run_key` block (DESIGN.md section 18).
 */
inline constexpr int kSchemaVersion = 2;

/**
 * The canonical identity of one simulation run, stamped into every
 * JSON report/sink and the metrics CSV so cross-run tooling
 * (`cooprt::diff`, tools/validate_sinks.py) can align or refuse to
 * align two documents. Two runs are *comparable* when scene, shader
 * and resolution agree; their fingerprints then say whether the
 * configurations were identical or are the very thing being compared
 * (DESIGN.md section 18).
 */
struct RunKeyFields
{
    /** Scene registry label. */
    std::string scene;
    /** Shader token (pt|ao|sh|knn|radius|contain). */
    std::string shader;
    /** Resolved square resolution (never 0 once stamped). */
    int resolution = 0;
    /** `RunConfig::fingerprint()` as "0x%016llx". */
    std::string fingerprint;

    /** True once a run has stamped the key. */
    bool valid() const { return !scene.empty(); }
};

/** Emit `"schema_version":N` into the current object. */
void writeSchemaVersion(JsonWriter &w);

/** Emit `"run_key":{...}` into the current object. */
void writeRunKey(JsonWriter &w, const RunKeyFields &key);

/** The run-key block as a standalone JSON object string (for the
 *  hand-concatenated emitters that bypass JsonWriter). */
std::string runKeyJson(const RunKeyFields &key);

/**
 * The schema/run-key stamp as one `#`-prefixed CSV comment line
 * (trailing newline included), prepended to metric time-series
 * exports. CSV consumers must skip `#` lines.
 */
std::string runKeyCsvComment(const RunKeyFields &key);

} // namespace cooprt::trace

#endif // COOPRT_TRACE_JSON_HPP
