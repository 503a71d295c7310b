/**
 * @file
 * The COOPRT_RTUNIT_STATS table is the one authority over the
 * RtUnitStats fields: it declares them, folds them over SMs, names
 * their registry probes and picks the report's "rt_unit" keys. These
 * tests pin the last three against it.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtunit_test_util.hpp"
#include "trace/registry.hpp"

namespace {

using namespace cooprt;
using rtunit::kRtUnitStatFields;
using rtunit::RtUnitStatField;
using rtunit::RtUnitStats;

TEST(RtUnitStatsTable, RegisteredProbesAreTheProbedFields)
{
    trace::Registry reg; // outlives the unit that registers into it
    testutil::RtHarness h(testutil::makeSoup(1, 50),
                          rtunit::TraceConfig{});
    h.unit.attachTrace(&reg, nullptr, 3);

    const std::string p = "rtunit.sm3.";
    // Unit state and the latency histogram ride beside the table.
    std::set<std::string> want = {
        p + "warpbuf.occupancy",   p + "responses.pending",
        p + "trace_latency.count", p + "trace_latency.sum",
        p + "trace_latency.mean",  p + "trace_latency.max"};
    std::set<std::string> unprobed;
    for (const RtUnitStatField &f : kRtUnitStatFields) {
        if (f.probe == rtunit::StatProbe::Probed)
            want.insert(p + f.name);
        else
            unprobed.insert(f.name);
    }
    const std::vector<std::string> names = reg.names(p + "*");
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), want);
    EXPECT_EQ(unprobed, (std::set<std::string>{"retired_trace_latency",
                                               "max_trace_latency"}));
}

TEST(RtUnitStatsTable, AccumulateSumsEveryFieldButTheMaxLatency)
{
    RtUnitStats a, b;
    std::uint64_t v = 1;
    for (const RtUnitStatField &f : kRtUnitStatFields) {
        a.*f.member = v;
        b.*f.member = 10 * v;
        ++v;
    }
    RtUnitStats total;
    rtunit::accumulate(total, a);
    rtunit::accumulate(total, b);
    for (const RtUnitStatField &f : kRtUnitStatFields) {
        const std::uint64_t one = a.*f.member;
        const bool max = std::string(f.name) == "max_trace_latency";
        EXPECT_EQ(f.combine == rtunit::StatCombine::Max, max) << f.name;
        EXPECT_EQ(total.*f.member, max ? 10 * one : 11 * one) << f.name;
    }
}

TEST(RtUnitStatsTable, ReportWritesTheReportedFieldsInTableOrder)
{
    // The report's "rt_unit" keys are a stable sink format: these 11,
    // in this order.
    std::vector<std::string> reported;
    for (const RtUnitStatField &f : kRtUnitStatFields)
        if (f.report == rtunit::StatReport::Reported)
            reported.push_back(f.name);
    EXPECT_EQ(reported,
              (std::vector<std::string>{
                  "node_fetches", "leaf_fetches", "box_tests", "tri_tests",
                  "steals", "stale_pops", "stack_overflows",
                  "retired_warps", "max_trace_latency", "prefetches",
                  "predictor_hits"}));
}

} // namespace
