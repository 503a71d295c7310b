// Fixture: a float member declared in the header...
struct PoolStats
{
    double busy_s = 0.0;
};
