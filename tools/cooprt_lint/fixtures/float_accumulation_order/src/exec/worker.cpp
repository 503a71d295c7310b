// Fixture: float-accumulation-order (exec-worker shape). Any float
// accumulation in src/exec/ is flagged: campaign workers complete
// in scheduler order.
#include <cstdint>

struct Aggregate
{
    double wall = 0.0;
    std::uint64_t jobs = 0;
};

void
onJobDone(Aggregate &agg, double elapsed)
{
    // V: completion-order float accumulation across jobs.
    agg.wall += elapsed;

    // Clean: integer counters commute.
    agg.jobs += 1;

    // Clean: `total` is a double in case.cpp, another unit.
    std::uint64_t total = agg.jobs;
    total += 1;
}
