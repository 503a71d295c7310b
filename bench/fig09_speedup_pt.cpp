/**
 * @file
 * Paper Fig. 9: CoopRT speedup, power and energy vs the baseline RT
 * unit, path tracing, per scene plus the geometric mean. The paper
 * reports up to 5.11x, gmean 2.15x, power ~2.02x, energy ~0.94x.
 *
 * Pass --config to also echo the Table 1 hardware configuration.
 */

#include "bench_util.hpp"

#include "diff/diff.hpp"

namespace {

void
printConfig(const cooprt::gpu::GpuConfig &c)
{
    std::printf("GPU configuration (Table 1, bench-scaled):\n");
    std::printf("  SMs: %d, warps/SM: %d, RT warp buffer: %d entries\n",
                c.num_sms, c.max_warps_per_sm,
                c.trace.warp_buffer_entries);
    std::printf("  L1: %llu KB fully-assoc, %u cyc; L2: %llu KB "
                "%u-way, %u cyc\n",
                (unsigned long long)c.mem.l1.size_bytes / 1024,
                c.mem.l1.latency,
                (unsigned long long)c.mem.l2.size_bytes / 1024,
                c.mem.l2.assoc, c.mem.l2.latency);
    std::printf("  DRAM: %u channels, %u cyc, %.1f B/cyc/channel\n\n",
                c.mem.dram.channels, c.mem.dram.latency,
                c.mem.dram.bytes_per_cycle);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cooprt;
    bool show_config = false;
    auto opt = benchutil::parse(
        argc, argv,
        {{"--config", "", "also print the Table 1 GPU configuration",
          cli::enable(show_config)}});
    if (show_config)
        printConfig(gpu::GpuConfig::rtx2060Bench());

    benchutil::banner("Fig. 9 — CoopRT speedup / power / energy over "
                      "baseline (path tracing)", opt);

    stats::Table t({"scene", "speedup", "power", "energy",
                    "util base", "util coop"});
    std::vector<double> speedups, powers, energies;
    const auto cmps = benchutil::compareCoopAll(
        opt, opt.scenes, core::RunConfig{}, "fig09");
    for (std::size_t s = 0; s < opt.scenes.size(); ++s) {
        const auto &label = opt.scenes[s];
        const core::Comparison &cmp = cmps[s];
        // Route the compare columns through the diff engine — same
        // double arithmetic as core::Comparison, and the same numbers
        // diff_cli reports for the exported (base, coop) report pair.
        const diff::RunDiff d =
            diff::diffRuns(diff::recordFromOutcome(cmp.base),
                           diff::recordFromOutcome(cmp.coop));
        speedups.push_back(d.speedup);
        powers.push_back(d.power_ratio);
        energies.push_back(d.energy_ratio);
        t.row()
            .cell(label)
            .cell(d.speedup, 2)
            .cell(d.power_ratio, 2)
            .cell(d.energy_ratio, 2)
            .cell(d.utilization_base, 2)
            .cell(d.utilization_other, 2);
    }
    if (!speedups.empty())
        t.row()
            .cell("gmean")
            .cell(stats::geomean(speedups), 2)
            .cell(stats::geomean(powers), 2)
            .cell(stats::geomean(energies), 2);
    benchutil::emit(t, opt);
    return 0;
}
