// ...and accumulated in the matching source. V: flagged.
#include "pool.hpp"

void
onSliceDone(PoolStats &stats, double dt)
{
    stats.busy_s += dt;
}
