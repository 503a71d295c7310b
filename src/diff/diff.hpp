/**
 * @file
 * `cooprt::diff` — the cross-run differential attribution engine
 * (DESIGN.md section 18).
 *
 * Every headline claim in the paper is a *difference* between two
 * runs (CoopRT vs baseline, arity A vs arity B), and PRs 1-9 built
 * five observability layers that each describe one run in isolation.
 * This engine closes the loop: it ingests two run records — either
 * in-process `core::RunOutcome`s or schema-v2 JSON report documents
 * — aligns them by the canonical run key (scene, shader, resolution;
 * see trace::RunKeyFields), and attributes the cycle delta across
 * every axis the observers measure:
 *
 *   - prof:      cycle delta per stall bucket, with the conservation
 *                guarantee that non-warp_buffer_full bucket deltas
 *                sum *bit-exactly* to the resident-cycle delta
 *                (integer arithmetic end to end);
 *   - memscope:  node-fetch delta per BVH depth x serving memory
 *                level (where in the tree, and from which level, the
 *                saved traffic came);
 *   - raytrace:  critical-path latency delta of the slowest sampled
 *                warps;
 *   - query:     round/found deltas and checksum agreement (a
 *                checksum mismatch means the runs computed different
 *                *answers*, not just different speeds);
 *   - telemetry: per-phase wall-clock and peak-RSS deltas, kept in a
 *                "host" object because they are the only
 *                nondeterministic fields in a diff.
 *
 * Two records are comparable when scene, shader and resolution
 * match. Fingerprints are NOT required to differ or to match: two
 * different fingerprints is the normal case (the configuration
 * change IS what is being measured), equal fingerprints is an
 * identity check (every deterministic delta must then be zero).
 *
 * Speedup is `base.cycles / other.cycles` computed in the exact same
 * double arithmetic as `core::Comparison::speedup()`, so a diff of a
 * (baseline, CoopRT) report pair reproduces the fig09 column
 * bit-for-bit.
 */

#ifndef COOPRT_DIFF_DIFF_HPP
#define COOPRT_DIFF_DIFF_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "diff/json_value.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace cooprt::core {
struct RunOutcome;
}

namespace cooprt::diff {

/* ------------------------------------------------------------------ */
/* Run records (the engine's normalized input)                         */
/* ------------------------------------------------------------------ */

/** One memscope depth row: node fetches at @p depth split by the
 *  memory level that served them. */
struct DepthRow
{
    int depth = 0;
    std::int64_t accesses = 0;
    std::int64_t bytes = 0;
    /** [0]=l1, [1]=l2, [2]=dram. */
    std::array<std::int64_t, 3> level{};
};

/** One telemetry phase span (host wall clock). */
struct PhaseRow
{
    std::string name;
    double seconds = 0.0;
};

/**
 * Everything the diff engine keeps about one run: the run key plus
 * the deterministic metric surface, normalized so a record built
 * from a live `core::RunOutcome` and a record parsed back from its
 * JSON report diff identically.
 */
struct RunRecord
{
    int schema_version = 0;
    cooprt::trace::RunKeyFields key;
    /** Where this record came from (file path / job tag), for
     *  diagnostics only. */
    std::string source;

    /* Headline. */
    std::int64_t cycles = 0;
    double avg_watts = 0.0;
    double total_joules = 0.0;
    double edp = 0.0;
    std::int64_t l2_bytes = 0;
    std::int64_t dram_bytes = 0;
    double avg_thread_utilization = 0.0;

    /* prof (stall-attribution taxonomy). */
    bool has_prof = false;
    std::int64_t resident_cycles = 0;
    std::int64_t rt_stall_cycles = 0;
    /** (bucket name, cycles) in taxonomy order. */
    std::vector<std::pair<std::string, std::int64_t>> buckets;

    /* memscope (BVH topology x memory hierarchy). */
    bool has_memscope = false;
    std::int64_t node_accesses = 0;
    std::int64_t node_bytes = 0;
    std::array<std::int64_t, 3> node_level{};
    std::vector<DepthRow> depths;

    /* raytrace (critical path). */
    bool has_ray = false;
    /** Sum of per-SM slowest-warp latencies. */
    std::int64_t critical_latency = 0;
    std::int64_t critical_warps = 0;

    /* query workloads. */
    bool has_query = false;
    std::string query_workload;
    std::int64_t query_queries = 0;
    std::int64_t query_rounds = 0;
    std::int64_t query_found = 0;
    /** "0x..." hex string, exactly as reported. */
    std::string query_checksum;

    /* telemetry (host; nondeterministic). */
    bool has_host = false;
    std::vector<PhaseRow> phases;
    double sim_seconds = 0.0;
    std::int64_t rss_peak_kb = 0;
};

/** Normalize a live outcome (bench/campaign in-process path). */
RunRecord recordFromOutcome(const core::RunOutcome &outcome);

/**
 * Normalize a parsed schema-v2 JSON document: either a run report
 * (`core::writeJson`) or one campaign JSON line (the report is then
 * under `"outcome"`). Returns false and fills @p error when the
 * document carries no run key (pre-v2 reports cannot be aligned).
 */
bool recordFromReportJson(const JsonValue &doc, RunRecord *record,
                          std::string *error);

/** Read + parse + normalize one report file. */
bool loadReportFile(const std::string &path, RunRecord *record,
                    std::string *error);

/* ------------------------------------------------------------------ */
/* Deltas                                                              */
/* ------------------------------------------------------------------ */

/** One integer metric across the two runs (delta = other - base). */
struct Delta
{
    std::int64_t base = 0;
    std::int64_t other = 0;
    std::int64_t delta() const { return other - base; }
};

/** A named Delta (prof bucket rows). */
struct NamedDelta
{
    std::string name;
    Delta d;
};

/** One depth x level attribution row. */
struct DepthDelta
{
    int depth = 0;
    Delta accesses;
    Delta bytes;
    /** [0]=l1, [1]=l2, [2]=dram. */
    std::array<Delta, 3> level;
};

/** One host phase across the two runs (nondeterministic). */
struct PhaseDelta
{
    std::string name;
    double base_s = 0.0;
    double other_s = 0.0;
    double deltaSeconds() const { return other_s - base_s; }
};

/** The aligned diff of two comparable runs. */
struct RunDiff
{
    cooprt::trace::RunKeyFields base_key;
    cooprt::trace::RunKeyFields other_key;
    std::string base_source;
    std::string other_source;
    /** True when the two fingerprints are equal (identity diff:
     *  every deterministic delta must be zero). */
    bool same_fingerprint = false;

    Delta cycles;
    /** base.cycles / other.cycles — fig09's exact arithmetic. */
    double speedup = 0.0;
    /** other / base (fig09's power & energy columns). */
    double power_ratio = 0.0;
    double energy_ratio = 0.0;
    /** base.edp / other.edp (fig15; > 1 is better). */
    double edp_improvement = 0.0;
    Delta l2_bytes;
    Delta dram_bytes;
    double utilization_base = 0.0;
    double utilization_other = 0.0;

    bool has_prof = false;
    Delta resident_cycles;
    Delta rt_stall_cycles;
    /** Taxonomy-ordered; non-warp_buffer_full deltas sum exactly to
     *  resident_cycles.delta() (the conservation invariant). */
    std::vector<NamedDelta> buckets;

    bool has_memscope = false;
    Delta node_accesses;
    Delta node_bytes;
    std::array<Delta, 3> node_level;
    /** Union of touched depths, ascending; absent side reads 0. */
    std::vector<DepthDelta> depths;

    bool has_ray = false;
    Delta critical_latency;

    bool has_query = false;
    Delta query_rounds;
    Delta query_found;
    bool checksum_match = false;
    std::string base_checksum;
    std::string other_checksum;

    bool has_host = false;
    std::vector<PhaseDelta> phases;
    double sim_seconds_base = 0.0;
    double sim_seconds_other = 0.0;
    Delta rss_peak_kb;

    /**
     * (other L2 bytes/cycle) / (base L2 bytes/cycle), each side
     * computed exactly like `gpu::RunStats::l2BytesPerCycle()` so
     * fig12's normalized-bandwidth column reproduces bit-for-bit.
     */
    double l2BandwidthRatio() const;
    /** DRAM counterpart of `l2BandwidthRatio()` (fig12). */
    double dramBandwidthRatio() const;
};

/**
 * Why two records cannot be diffed; empty string == comparable.
 * Scene, shader and resolution must match; fingerprints need not.
 */
std::string checkComparable(const RunRecord &base,
                            const RunRecord &other);

/**
 * Diff two *comparable* records (callers gate on checkComparable).
 * Audits the bucket-delta conservation invariant
 * (`diff.delta_conservation`) under COOPRT_CHECK.
 */
RunDiff diffRuns(const RunRecord &base, const RunRecord &other);

/* ------------------------------------------------------------------ */
/* Output surfaces                                                     */
/* ------------------------------------------------------------------ */

/**
 * The diff as one schema-stamped JSON document (validated by
 * tools/validate_sinks.py). Deterministic except for the optional
 * trailing "host" object. One line, newline-terminated — suitable
 * both as a file and as a JSON-lines sink entry.
 */
void writeJson(std::ostream &os, const RunDiff &d);

/** Aligned human-readable tables (stdout surface of diff_cli). */
void writeText(std::ostream &os, const RunDiff &d);

/** GitHub-flavoured markdown export (`diff_cli --markdown`). */
void writeMarkdown(std::ostream &os, const RunDiff &d);

/**
 * A one-line attribution summary for regression messages, e.g.
 *
 *   "cycles +6.1%: starved_l2 +4.1% (depth 3-5), stack_bound +1.8%"
 *
 * The cycle percentage is of the base run's cycle count; bucket
 * percentages are of the base run's resident warp-cycles (bucket
 * cycles are per-warp sums). The depth range is where the memscope
 * traffic delta concentrates. Empty when the cycle delta is zero.
 */
std::string attributionSummary(const RunDiff &d);

/* ------------------------------------------------------------------ */
/* Engine handle                                                       */
/* ------------------------------------------------------------------ */

/**
 * Stateful wrapper used by the CLIs: counts comparisons and key
 * mismatches and exposes them as `diff.*` registry probes (owned by
 * src/diff/diff.cpp per the registry-authority table).
 */
class Differ
{
  public:
    /**
     * Diff @p base against @p other if comparable. Returns true and
     * fills @p out on success; returns false and fills @p error
     * (counting a key mismatch) otherwise.
     */
    bool compare(const RunRecord &base, const RunRecord &other,
                 RunDiff *out, std::string *error);

    std::uint64_t comparisons() const { return comparisons_; }
    std::uint64_t keyMismatches() const { return key_mismatches_; }

    /** Register the engine's counters as `diff.*` probes. */
    void registerMetrics(cooprt::trace::Registry &registry);

  private:
    std::uint64_t attempts_ = 0;
    std::uint64_t comparisons_ = 0;
    std::uint64_t key_mismatches_ = 0;
};

} // namespace cooprt::diff

#endif // COOPRT_DIFF_DIFF_HPP
