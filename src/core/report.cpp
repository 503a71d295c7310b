#include "core/report.hpp"

#include <ostream>
#include <sstream>

#include "rtunit/rt_unit.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/json.hpp"

namespace cooprt::core {

void
writeJson(std::ostream &os, const RunOutcome &o)
{
    cooprt::trace::JsonWriter w(os);
    w.open();
    trace::writeSchemaVersion(w);
    if (o.run_key.valid())
        trace::writeRunKey(w, o.run_key);
    w.field("scene", o.scene);
    w.field("resolution", o.resolution);
    w.field("cycles", o.gpu.cycles);

    // Configure-time provenance: constant per binary, so reports stay
    // byte-identical across worker counts. Wall-clock telemetry never
    // joins this report (see Recorder::writeJson for the host sink).
    w.open("build");
    telemetry::writeBuildFields(w);
    w.close();

    w.open("rt_unit");
    for (const rtunit::RtUnitStatField &f : rtunit::kRtUnitStatFields)
        if (f.report == rtunit::StatReport::Reported)
            w.field(f.name, o.gpu.rt.*f.member);
    w.close();

    w.open("memory");
    w.field("l1_accesses", o.gpu.l1.accesses);
    w.field("l1_miss_rate", o.gpu.l1.missRate());
    w.field("l2_accesses", o.gpu.l2.accesses);
    w.field("l2_miss_rate", o.gpu.l2.missRate());
    w.field("dram_requests", o.gpu.dram.requests);
    w.field("dram_bytes", o.gpu.dram.bytes);
    w.field("l2_bytes", o.gpu.mem_sys.l2_bytes);
    w.field("dram_utilization", o.gpu.dram_utilization);
    w.close();

    w.open("stalls");
    w.field("rt", o.gpu.stalls.rt);
    w.field("mem", o.gpu.stalls.mem);
    w.field("alu", o.gpu.stalls.alu);
    w.field("sfu", o.gpu.stalls.sfu);
    w.close();

    w.open("power");
    w.field("seconds", o.power.seconds);
    w.field("dynamic_j", o.power.dynamic_j);
    w.field("static_j", o.power.static_j);
    w.field("avg_watts", o.power.avgWatts());
    w.field("edp", o.power.edp());
    w.close();

    w.field("avg_thread_utilization", o.gpu.avg_thread_utilization);
    w.field("slowest_warp_latency", o.gpu.slowestWarpLatency());

    if (o.gpu.prof_summary.enabled) {
        const auto &p = o.gpu.prof_summary;
        w.open("prof");
        w.field("resident_cycles", p.resident_cycles);
        w.field("rt_stall_cycles", p.rtStallCycles());
        w.open("buckets");
        for (int b = 0; b < prof::kNumBuckets; ++b)
            w.field(prof::bucketName(prof::Bucket(b)), p.buckets[b]);
        w.close();
        w.open("thread_status");
        w.field("inactive", p.threads.inactive);
        w.field("busy", p.threads.busy);
        w.field("waiting", p.threads.waiting);
        w.close();
        w.close();
    }

    if (o.gpu.ray_summary.enabled) {
        const auto &r = o.gpu.ray_summary;
        w.open("ray");
        w.field("warps_seen", r.stats.warps_seen);
        w.field("warps_sampled", r.stats.warps_sampled);
        w.field("warps_retired", r.stats.warps_retired);
        w.field("rays_sampled", r.stats.rays_sampled);
        w.field("events_recorded", r.stats.events_recorded);
        w.field("events_dropped", r.stats.events_dropped);
        w.field("steal_events", r.stats.steal_events);
        w.openArray("critical_path");
        for (const auto &e : r.critical) {
            w.open();
            w.field("sm", e.sm);
            w.field("ordinal", e.ordinal);
            w.field("warp_id", e.warp_id);
            w.field("submit_cycle", e.submit_cycle);
            w.field("retire_cycle", e.retire_cycle);
            w.field("latency", e.latency());
            w.field("blocking_lane", e.blocking_lane);
            w.field("ray_node_visits", e.ray_node_visits);
            w.field("ray_steals_in", e.ray_steals_in);
            w.field("ray_steals_out", e.ray_steals_out);
            w.open("buckets");
            for (int b = 0; b < prof::kNumBuckets; ++b)
                w.field(prof::bucketName(prof::Bucket(b)),
                        e.buckets[std::size_t(b)]);
            w.close();
            w.close();
        }
        w.closeArray();
        w.close();
    }

    if (o.gpu.memscope_summary.enabled) {
        const auto &m = o.gpu.memscope_summary;
        w.open("memscope");
        w.field("node_accesses", m.node_accesses);
        w.field("node_bytes", m.node_bytes);
        w.open("levels");
        w.field("l1", m.node_level[0]);
        w.field("l2", m.node_level[1]);
        w.field("dram", m.node_level[2]);
        w.close();
        w.openArray("depths");
        for (const auto &d : m.depths) {
            w.open();
            w.field("depth", d.depth);
            w.field("accesses", d.accesses);
            w.field("bytes", d.bytes);
            // Serving-level split per depth: the diff engine's
            // depth × level attribution axis (DESIGN.md §18).
            w.field("l1", d.level[0]);
            w.field("l2", d.level[1]);
            w.field("dram", d.level[2]);
            w.field("miss_rate", d.missRate());
            w.field("avg_lanes", d.avgLanes());
            w.close();
        }
        w.closeArray();
        w.open("mem");
        w.field("line_l1", m.traffic.line_level[0]);
        w.field("line_l2", m.traffic.line_level[1]);
        w.field("line_dram", m.traffic.line_level[2]);
        w.field("l2_fill_bytes", m.traffic.l2_fill_bytes);
        w.field("bank_conflicts", m.traffic.bank_conflicts);
        w.field("bank_wait_cycles", m.traffic.bank_wait_cycles);
        w.close();
        w.open("dram");
        w.field("row_hits", m.dram_row_hits);
        w.field("row_misses", m.dram_row_misses);
        w.close();
        w.open("reuse");
        w.field("l1_cold", m.l1_reuse_cold);
        w.field("l1_tracked", m.l1_reuse_tracked);
        w.field("l2_cold", m.l2_reuse_cold);
        w.field("l2_tracked", m.l2_reuse_tracked);
        w.close();
        w.close();
    }

    if (o.query.enabled) {
        w.open("query");
        w.field("workload", o.query.workload);
        w.field("queries", o.query.queries);
        w.field("rounds", o.query.rounds);
        w.field("found", o.query.found);
        // Hex string: a 64-bit checksum exceeds the exact-integer
        // range of JSON readers that decode numbers as doubles.
        std::ostringstream csum;
        csum << "0x" << std::hex << o.query.checksum;
        w.field("checksum", csum.str());
        if (o.query.verified) {
            w.open("oracle");
            w.field("checked", o.query.oracle_checked);
            w.field("mismatches", o.query.oracle_mismatches);
            w.field("matches",
                    o.query.oracleMatches() ? "true" : "false");
            w.close();
        }
        w.close();
    }

    if (o.traceSummary().enabled) {
        w.open("trace");
        w.field("events_recorded", o.traceSummary().events_recorded);
        w.field("events_dropped", o.traceSummary().events_dropped);
        w.field("metric_samples", o.traceSummary().metric_samples);
        w.field("registered_metrics",
                o.traceSummary().registered_metrics);
        w.close();
    }
    w.close();
    os << '\n';
}

std::string
toJson(const RunOutcome &outcome)
{
    std::ostringstream ss;
    writeJson(ss, outcome);
    return ss.str();
}

} // namespace cooprt::core
